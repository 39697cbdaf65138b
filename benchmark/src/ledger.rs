//! The per-layer ledger of a traced run: where the time of the workload
//! that ran went, in ns per item, from the self times the span recorder
//! summed. A layer the workload does not touch reads 0.

use crate::probes::Row;
use crate::stats::Slice;
use crate::tracer::{Recording, Site};
use crate::workload::Run;

/// Names and units of the ledger rows, in the order [`rows`] returns
/// them.
pub const ROWS: [(&str, &str); 16] = [
    ("engine.emit_at_ns", "ns"),
    ("engine.run_until_self_ns", "ns"),
    ("engine.actuate_self_ns", "ns"),
    ("engine.self_share", "ratio"),
    ("engine.allocs_per_item", "count"),
    ("engine.alloc_bytes_per_item", "B"),
    ("component.logic_ns", "ns"),
    ("device.call_ns", "ns"),
    ("link.call_self_ns", "ns"),
    ("link.tick_ns", "ns"),
    ("link.path_share", "ratio"),
    ("socket.exchange_ns", "ns"),
    ("edge.handle_self_ns", "ns"),
    ("harness.trace_overhead", "ratio"),
    ("harness.ledger_gap", "ratio"),
    ("harness.slice_spread", "ratio"),
];

fn best_throughput(slices: &[Slice]) -> f64 {
    slices
        .iter()
        .map(Slice::throughput)
        .fold(f64::MIN, f64::max)
}

/// The ledger of the `traced` run; `untraced` is the same workload run
/// just before without a recorder.
///
/// Every row but the shares is time (or allocations) per item of the
/// workload. The time rows are disjoint and, with the gap, add up to the
/// wall time of the traced slices:
///
/// - `engine.emit_at_ns`, `engine.run_until_self_ns`: the two engine
///   calls, minus every span below them and minus the component time the
///   engine's activity recorder reports on the parking workloads;
/// - `engine.actuate_self_ns`: `ControllerApi::invoke` as the benchmark's
///   own controllers call it, minus the device call (on the parking
///   workloads this time stays in `run_until`);
/// - `component.logic_ns`: context and controller logic and MapReduce
///   phases, minus the actuations nested in them;
/// - `device.call_ns`: the device drivers, where they run;
/// - `link.call_self_ns`: a proxy call minus the exchange below it —
///   link, session, envelope codec on the coordinator;
/// - `socket.exchange_ns`: an exchange minus the edge's handler —
///   socket writes and reads, loopback, the thread hand-off;
/// - `edge.handle_self_ns`: the edge's handler minus its device call;
/// - `link.tick_ns`: the tick pump's exchanges, edge side included.
pub fn rows(untraced: &Run, traced: &Run) -> Vec<Row> {
    let items: u64 = traced.slices.iter().map(|s| s.items).sum();
    let wall_ns: u64 = traced.slices.iter().map(|s| s.wall_ns).sum();
    let nothing = Recording::default();
    let coordinator = traced.recording.as_ref().unwrap_or(&nothing);
    let edge = traced.finish.edge.as_ref().unwrap_or(&nothing);
    let here = |site| coordinator.total(site);
    let there = |site| edge.total(site);

    let tick_ns = here(Site::TickExchange).total_ns;
    // The activity recorder files the tick pump's wake under processing.
    let obs_component_ns = traced.finish.obs_processing_ns.saturating_sub(tick_ns);
    let component_ns =
        here(Site::Context).self_ns + here(Site::Controller).self_ns + obs_component_ns;
    let emit_ns = here(Site::Emit).self_ns;
    let run_self_ns = here(Site::RunUntil)
        .self_ns
        .saturating_sub(obs_component_ns);
    let actuate_ns = here(Site::Actuate).self_ns;
    let device_ns = here(Site::Device).self_ns + there(Site::EdgeDevice).self_ns;
    let link_ns = here(Site::ProxyCall).self_ns;
    let socket_ns = here(Site::Exchange)
        .total_ns
        .saturating_sub(there(Site::EdgeHandle).total_ns);
    let edge_ns = there(Site::EdgeHandle).self_ns;
    let accounted_ns = emit_ns
        + run_self_ns
        + actuate_ns
        + component_ns
        + device_ns
        + link_ns
        + socket_ns
        + edge_ns
        + tick_ns;

    let per_item = |ns: u64| ns as f64 / items as f64;
    let share = |ns: u64| ns as f64 / wall_ns as f64;
    let (allocs, alloc_bytes) = untraced.allocs_per_item.unwrap_or((0.0, 0.0));
    let fastest = best_throughput(&untraced.slices);
    let slowest = untraced
        .slices
        .iter()
        .map(Slice::throughput)
        .fold(f64::MAX, f64::min);

    let values = [
        per_item(emit_ns),
        per_item(run_self_ns),
        per_item(actuate_ns),
        share(emit_ns + run_self_ns + actuate_ns),
        allocs,
        alloc_bytes,
        per_item(component_ns),
        per_item(device_ns),
        per_item(link_ns),
        per_item(tick_ns),
        share(here(Site::ProxyCall).total_ns),
        per_item(socket_ns),
        per_item(edge_ns),
        fastest / best_throughput(&traced.slices),
        1.0 - accounted_ns as f64 / wall_ns as f64,
        fastest / slowest,
    ];
    ROWS.iter()
        .zip(values)
        .map(|((name, unit), value)| (*name, value, *unit))
        .collect()
}
