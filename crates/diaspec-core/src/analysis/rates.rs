//! Pass 4b: the load model — rate propagation, window/period mismatches
//! (W0404), the static capacity report, and the one budget pass.
//!
//! The one place a declaration becomes messages per hour. Rates propagate
//! forward in topological order from periodic subscriptions (`1/period`,
//! re-timed by `every <W>` windows) and from event-driven sources with a
//! `@qos(periodMs = …)` hint. Each edge carries its rate for one device
//! of its family; [`EdgeCapacity::msgs_per_hour`] scales it by a count:
//! a *fleet-size hypothesis* (capacity report), an infrastructure
//! ([`crate::requirements`]) or the entities a run bound.
//!
//! `judge` holds the scaled load of N ≥ 1 designs against every budget
//! it meets: a device family's `@qos(capacityPerHour)`, a cut link's
//! `msgs_per_hour`, and §VI's network capacity. A single design is the
//! N = 1 case.

use super::deployment::{declaration, DeployPins, DesignRef, MergedTaxonomy};
use super::graph::{DesignGraph, EdgeKind, Node};
use crate::diag::{Diagnostic, Diagnostics, Severity};
use crate::model::{CheckedSpec, Device, PublishMode};
use crate::span::{Loc, Span};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

const MS_PER_HOUR: f64 = 3_600_000.0;

/// How often, in ms, an activation clocked every `period_ms` fires when
/// folded `every <window_ms>`: the engine closes a window at the first
/// poll at or after its deadline, so every `P·max(1, ⌈W/P⌉)` ms.
pub(crate) fn cadence_ms(period_ms: u64, window_ms: Option<u64>) -> u64 {
    let polls = window_ms.map_or(1, |w| w.div_ceil(period_ms.max(1)).max(1));
    period_ms.saturating_mul(polls)
}

/// Activations per hour of a clock (see [`cadence_ms`]).
fn per_hour(period_ms: u64, window_ms: Option<u64>) -> f64 {
    MS_PER_HOUR / cadence_ms(period_ms, window_ms) as f64
}

/// The sum of the known rates (from +0.0; `Sum` for f64 starts at -0.0)
/// and how many are unknown.
pub(crate) fn tally(rates: impl IntoIterator<Item = Option<f64>>) -> (f64, usize) {
    rates
        .into_iter()
        .fold((0.0, 0), |(known, unknown), rate| match rate {
            Some(rate) => (known + rate, unknown),
            None => (known, unknown + 1),
        })
}

/// The interaction an edge of the load model stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum LoadKind {
    /// Batched delivery of a polled device source (`when periodic`).
    Periodic,
    /// Event-driven delivery of a device source (`when provided`).
    Event,
    /// A context publication reaching a subscribing component.
    Publish,
    /// A query-driven read (`get`), once per activation.
    Get,
    /// An actuation (`do`), once per trigger and matching device.
    Do,
}

impl fmt::Display for LoadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LoadKind::Periodic => "periodic",
            LoadKind::Event => "event",
            LoadKind::Publish => "publish",
            LoadKind::Get => "get",
            LoadKind::Do => "do",
        })
    }
}

/// One edge of the load model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeCapacity {
    /// Producing endpoint (`Device.source`, `[Context]`, `(Controller)`).
    pub from: String,
    /// Consuming endpoint.
    pub to: String,
    /// Interaction kind.
    pub kind: LoadKind,
    /// The device family the rate scales with (the polled, sensed,
    /// queried or actuated device); `None` for context-to-context and
    /// context-to-controller edges.
    pub family: Option<String>,
    /// Messages per hour for one deployed device of `family` (the whole
    /// edge when it has none), `None` when unknown at design time. Below a
    /// hinted event source, it counts the hypothesis's devices of that.
    pub msgs_per_device_hour: Option<f64>,
    /// How the estimate was derived (or why there is none).
    pub note: String,
}

impl EdgeCapacity {
    /// The one scaling rule of the load model: the one-device rate times
    /// `count` of the edge's family (asked only when the edge has one).
    #[must_use]
    pub fn msgs_per_hour(&self, count: impl FnOnce(&str) -> u64) -> Option<f64> {
        let rate = self.msgs_per_device_hour?;
        Some(match &self.family {
            Some(family) => rate * count(family) as f64,
            None => rate,
        })
    }
}

/// The static capacity report: every interaction edge with its estimated
/// hourly message rate under a fleet-size hypothesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityReport {
    /// Assumed number of deployed devices per referenced family.
    pub fleet_size: u64,
    /// Edges in deterministic (consumer declaration) order.
    pub edges: Vec<EdgeCapacity>,
    /// Sum of all known edge rates.
    pub total_msgs_per_hour: f64,
    /// Number of edges whose rate is unknown (event-driven, no hint).
    pub unknown_edges: usize,
}

impl fmt::Display for CapacityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "capacity report (fleet hypothesis: {} devices per family)",
            self.fleet_size
        )?;
        for edge in &self.edges {
            let rate = match edge.msgs_per_hour(|_| self.fleet_size) {
                Some(r) => format!("{r:>12.1} msg/h"),
                None => format!("{:>12} msg/h", "?"),
            };
            writeln!(
                f,
                "  {rate}  {} -> {}  [{}]  {}",
                edge.from, edge.to, edge.kind, edge.note
            )?;
        }
        write!(
            f,
            "  total known: {:.1} msg/h, {} edge(s) unknown",
            self.total_msgs_per_hour, self.unknown_edges
        )
    }
}

/// Runs the rate pass over `graph`: W0404 diagnostics plus the
/// capacity report.
pub(crate) fn detect(
    spec: &CheckedSpec,
    graph: &DesignGraph,
    fleet_size: u64,
    diags: &mut Diagnostics,
) -> CapacityReport {
    let fleet = |_: &str| fleet_size;
    let mut edges = Vec::new();
    // Publication rate (msg/h) of each context, `None` when unknown.
    // Topological order guarantees producers are rated before consumers.
    let mut rate: BTreeMap<&str, Option<f64>> = BTreeMap::new();

    for ctx in spec.context_topo_order() {
        let to = format!("[{}]", ctx.name);
        let id = graph.context_id(&ctx.name);
        let mut own: Option<f64> = Some(0.0);
        // Activations per hour of the last triggered clause: its `get`s
        // follow it. A `when required` clause has no trigger edge and
        // activates only on demand.
        let mut triggered: Option<(usize, Option<f64>)> = None;
        for edge in graph.edges.iter().filter(|e| Some(e.to) == id) {
            let Some(activation) = graph.activation(spec, edge) else {
                continue;
            };
            let from = &graph.nodes[edge.from];
            let family = edge.family.as_deref();
            // (kind, msg/h for one device of the family, note, and the
            // activations per hour a trigger causes).
            let (kind, rate_per_device, note, activations_per_hour) = match (edge.kind, family) {
                (EdgeKind::Query, _) => {
                    // `get` edges fire once per activation; device-facing
                    // gets fan out to every matching deployed device.
                    let per_activation = match triggered {
                        Some((clause, rate)) if clause == edge.clause => rate,
                        _ => Some(0.0),
                    };
                    let note = match family {
                        Some(_) => format!("per activation x {fleet_size} devices"),
                        None => "per activation".to_owned(),
                    };
                    (LoadKind::Get, per_activation, note, None)
                }
                (
                    EdgeKind::Periodic {
                        period_ms,
                        window_ms,
                    },
                    _,
                ) => {
                    // W0404: a window shorter than the delivery period
                    // closes with at most one batch in it — aggregation
                    // degenerates.
                    if let Some(window_ms) = window_ms.filter(|w| *w < period_ms) {
                        let grouping = activation.grouping.as_ref();
                        diags.push(Diagnostic::warning(
                            "W0404",
                            format!(
                                "aggregation window ({window_ms} ms) is shorter than the delivery period ({period_ms} ms): each window sees at most one batch"
                            ),
                            grouping.and_then(|g| g.window_span).unwrap_or(activation.span),
                        ));
                    }
                    let note = format!("{fleet_size} devices x 1/{period_ms} ms, batched");
                    // One activation per delivery, or per window when
                    // the readings are folded `every <W>`.
                    let activations = Some(per_hour(period_ms, window_ms));
                    (
                        LoadKind::Periodic,
                        Some(per_hour(period_ms, None)),
                        note,
                        activations,
                    )
                }
                (_, Some(device)) => {
                    let hinted = spec.device(device).and_then(Device::qos_period_ms);
                    let note = match hinted {
                        Some(p) => format!("{fleet_size} devices x @qos(periodMs = {p}) hint"),
                        None => "event-driven; no @qos(periodMs) hint".to_owned(),
                    };
                    // Every device's publication activates the context.
                    let rate = hinted.map(|p| per_hour(p, None));
                    let activations = rate.map(|per_device| per_device * fleet(device) as f64);
                    (LoadKind::Event, rate, note, activations)
                }
                (_, None) => {
                    let upstream = match from {
                        Node::Context(name) => rate.get(name.as_str()).copied().flatten(),
                        _ => None,
                    };
                    let note = match upstream {
                        Some(_) => "publication rate of the producer",
                        None => "producer rate unknown",
                    };
                    (LoadKind::Publish, upstream, note.to_owned(), upstream)
                }
            };
            edges.push(EdgeCapacity {
                // A device end is written with the family its clause names.
                from: match (from, family) {
                    (Node::Source { source, .. }, Some(family)) => format!("{family}.{source}"),
                    _ => from.to_string(),
                },
                to: to.clone(),
                kind,
                family: edge.family.clone(),
                msgs_per_device_hour: rate_per_device,
                note,
            });
            if kind == LoadKind::Get {
                continue;
            }
            triggered = Some((edge.clause, activations_per_hour));

            // Contribution to the context's own publication rate.
            let published = match activation.publish {
                PublishMode::Always | PublishMode::Maybe => activations_per_hour,
                PublishMode::No => Some(0.0),
            };
            own = match (own, published) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
        }
        rate.insert(&ctx.name, own);
    }

    // Each binding's trigger edge precedes its `do` edges.
    let mut trigger_rate = None;
    for edge in &graph.edges {
        match (&graph.nodes[edge.from], &graph.nodes[edge.to]) {
            (Node::Context(context), Node::Controller(_)) => {
                trigger_rate = rate.get(context.as_str()).copied().flatten();
                edges.push(EdgeCapacity {
                    from: graph.nodes[edge.from].to_string(),
                    to: graph.nodes[edge.to].to_string(),
                    kind: LoadKind::Publish,
                    family: None,
                    msgs_per_device_hour: trigger_rate,
                    note: match trigger_rate {
                        Some(_) => "publication rate of the trigger context".to_owned(),
                        None => "trigger rate unknown".to_owned(),
                    },
                });
            }
            (Node::Controller(_), Node::Action { .. }) => edges.push(EdgeCapacity {
                from: graph.nodes[edge.from].to_string(),
                to: graph.nodes[edge.to].to_string(),
                kind: LoadKind::Do,
                family: edge.family.clone(),
                msgs_per_device_hour: trigger_rate,
                note: format!("per trigger x {fleet_size} matching devices"),
            }),
            _ => {}
        }
    }

    let (total, unknown) = tally(edges.iter().map(|e| e.msgs_per_hour(fleet)));
    CapacityReport {
        fleet_size,
        edges,
        total_msgs_per_hour: total,
        unknown_edges: unknown,
    }
}

/// The known msg/h of the `edges` that `picks` keeps, each scaled by
/// `count` of its family, and how many of them have no design-time rate:
/// the one load sum of every budget [`judge`] checks.
fn load(
    edges: &[EdgeCapacity],
    picks: impl Fn(&EdgeCapacity) -> bool,
    count: &dyn Fn(&str) -> u64,
) -> (f64, usize) {
    tally(
        edges
            .iter()
            .filter(|e| picks(e))
            .map(|e| e.msgs_per_hour(count)),
    )
}

/// Whether an edge loads `family`: its own family overlaps it.
fn touching<'a>(
    taxonomy: &'a MergedTaxonomy,
    family: &'a str,
) -> impl Fn(&EdgeCapacity) -> bool + 'a {
    move |e| {
        e.family
            .as_deref()
            .is_some_and(|f| taxonomy.overlap(f, family))
    }
}

/// What [`judge`] found.
pub(crate) struct Verdict {
    /// Budgets one design overloads by itself (W0407), located in it.
    pub alone: Vec<Diagnostic>,
    /// Budgets of the designs together: §VI's network (E0604 / W0605),
    /// families no single design overloads (W0602), cut links (W0602).
    pub together: Vec<Diagnostic>,
    /// The periodic edges' msg/h: §VI's network demand.
    pub periodic_msgs_per_hour: f64,
}

/// The one budget pass. Design `i`'s graph is `graphs[i]` and its
/// load-model edges are `loads[i]`, each rate scaled by `count` of its
/// family: `|_| N` under `--fleet N`,
/// an infrastructure's entities of the family, subtypes included.
///
/// - A device family's `@qos(capacityPerHour)` (the smallest any design
///   declares) × `count` of the family, against every edge on a family
///   that overlaps it: W0407 in a design that overloads it alone, W0602
///   when only the designs together do.
/// - Each cut link's `msgs_per_hour` (the smallest its manifests give),
///   against the load of the families pinned to it: W0602.
/// - §VI's `network` capacity against the periodic edges: E0604 over it,
///   W0605 above 80 % of it.
pub(crate) fn judge(
    designs: &[DesignRef<'_>],
    graphs: &[DesignGraph],
    loads: &[Vec<EdgeCapacity>],
    count: &dyn Fn(&str) -> u64,
    pins: &[DeployPins],
    network: Option<f64>,
) -> Verdict {
    let periodic = |e: &EdgeCapacity| e.kind == LoadKind::Periodic;
    let periodic_msgs_per_hour = loads
        .iter()
        .fold(0.0, |sum, edges| sum + load(edges, periodic, count).0);
    let mut together: Vec<Diagnostic> = network
        .and_then(|capacity| network_finding(designs, graphs, periodic_msgs_per_hour, capacity))
        .into_iter()
        .collect();
    let alone: Vec<(&str, Diagnostic)> = (0..designs.len())
        .flat_map(|i| overloads(designs, loads, &[i], count))
        .collect();
    if designs.len() > 1 {
        let all: Vec<usize> = (0..designs.len()).collect();
        for (family, finding) in overloads(designs, loads, &all, count) {
            if alone.iter().all(|(overloaded, _)| *overloaded != family) {
                together.push(finding);
            }
        }
    }
    together.extend(link_findings(designs, loads, count, pins));
    Verdict {
        alone: alone.into_iter().map(|(_, finding)| finding).collect(),
        together,
        periodic_msgs_per_hour,
    }
}

/// E0604 / W0605 at the first periodic context (in name order).
fn network_finding(
    designs: &[DesignRef<'_>],
    graphs: &[DesignGraph],
    demand: f64,
    capacity: f64,
) -> Option<Diagnostic> {
    let finding = if demand > capacity {
        Diagnostic::error(
            "E0604",
            format!("periodic contracts need ~{demand:.0} msgs/hour but the network provides {capacity:.0}"),
            Span::DUMMY,
        )
    } else if demand > 0.8 * capacity {
        Diagnostic::warning(
            "W0605",
            format!("periodic demand (~{demand:.0} msgs/hour) uses more than 80% of the network capacity ({capacity:.0})"),
            Span::DUMMY,
        )
    } else {
        return None;
    };
    // Edges enter contexts in name order, so the first periodic edge
    // enters the first context that polls.
    let at = designs
        .iter()
        .zip(graphs)
        .enumerate()
        .find_map(|(file, (design, graph))| {
            let edge = graph
                .edges
                .iter()
                .find(|e| matches!(e.kind, EdgeKind::Periodic { .. }))?;
            let Node::Context(name) = &graph.nodes[edge.to] else {
                return None;
            };
            let span = design.spec.context(name)?.span;
            Some(Loc { file, span })
        });
    Some(Diagnostic {
        at: at.unwrap_or(finding.at),
        ..finding
    })
}

/// Every family the `members` of `designs` overload together, with its
/// finding: W0407 for one member, W0602 for several.
fn overloads<'a>(
    designs: &[DesignRef<'a>],
    loads: &[Vec<EdgeCapacity>],
    members: &[usize],
    count: &dyn Fn(&str) -> u64,
) -> Vec<(&'a str, Diagnostic)> {
    let taxonomy = MergedTaxonomy::build(&members.iter().map(|&i| designs[i]).collect::<Vec<_>>());
    // The smallest declaration wins (most conservative).
    let mut budgets: BTreeMap<&'a str, (u64, usize)> = BTreeMap::new();
    for &i in members {
        for device in designs[i].spec.devices() {
            if let Some(cap) = device.qos_capacity_per_hour() {
                let entry = budgets.entry(&device.name).or_insert((cap, i));
                if cap < entry.0 {
                    *entry = (cap, i);
                }
            }
        }
    }
    let mut found = Vec::new();
    for (family, (per_device, declared_in)) in budgets {
        let mut per_design = Vec::new();
        let mut unknown = 0;
        for &i in members {
            let (known, unrated) = load(&loads[i], touching(&taxonomy, family), count);
            unknown += unrated;
            if known > 0.0 || unrated > 0 {
                per_design.push((i, known));
            }
        }
        let total = per_design.iter().fold(0.0, |sum, (_, rate)| sum + rate);
        let devices = count(family);
        let budget = per_device as f64 * devices as f64;
        if total <= budget {
            continue;
        }
        let mut notes: Vec<(String, Option<Loc>)> = Vec::new();
        let together = members.len() > 1;
        if together {
            for &(i, _) in &per_design {
                if i != declared_in && designs[i].spec.device(family).is_some() {
                    let also = format!("also orchestrated by design `{}` here", designs[i].name);
                    notes.push((also, Some(declaration(designs, i, family))));
                }
            }
            let contributions: Vec<String> = per_design
                .iter()
                .map(|&(i, rate)| format!("`{}` {rate:.1} msg/h", designs[i].name))
                .collect();
            let contributions = contributions.join(", ");
            notes.push((format!("per-design contributions: {contributions}"), None));
        }
        if unknown > 0 {
            let uncounted =
                format!("{unknown} matching edge(s) have no design-time rate and are not counted");
            notes.push((uncounted, None));
        }
        let (code, subject) = if together {
            ("W0602", "co-deployed designs overload")
        } else {
            ("W0407", "the design overloads")
        };
        let finding = Diagnostic {
            severity: Severity::Warning,
            code,
            message: format!(
                "{subject} device family `{family}`: {total:.1} msg/h against a budget of {budget:.1} msg/h (@qos(capacityPerHour = {per_device}) x {devices} devices)"
            ),
            at: declaration(designs, declared_in, family),
            notes,
        };
        found.push((family, finding));
    }
    found
}

/// A cut link's budget and the flows pinned to it, as (design, family,
/// msg/h).
type Link<'a> = (Option<u64>, Vec<(usize, &'a str, f64)>);

/// W0602 for every cut link whose pinned families carry more than the
/// smallest `msgs_per_hour` its manifests give it.
fn link_findings(
    designs: &[DesignRef<'_>],
    loads: &[Vec<EdgeCapacity>],
    count: &dyn Fn(&str) -> u64,
    pins: &[DeployPins],
) -> Vec<Diagnostic> {
    let taxonomy = MergedTaxonomy::build(designs);
    let mut links: BTreeMap<&str, Link<'_>> = BTreeMap::new();
    for pin in pins {
        for (family, hosts) in &pin.families {
            let (family_load, _) = load(&loads[pin.design], touching(&taxonomy, family), count);
            let total_variants: usize = hosts.iter().map(|h| h.variants.len()).sum();
            let edge_hosts = hosts.iter().filter(|h| h.addr.is_some()).count();
            for host in hosts {
                let Some(addr) = &host.addr else { continue };
                let (budget, per_design) = links.entry(addr).or_default();
                *budget = (*budget).into_iter().chain(host.link_msgs_per_hour).min();
                // Pro-rate the family's flow across its edge hosts by
                // shard-variant count when sharded, evenly otherwise.
                let share = if total_variants > 0 {
                    host.variants.len() as f64 / total_variants as f64
                } else {
                    1.0 / edge_hosts as f64
                };
                if family_load > 0.0 && share > 0.0 {
                    per_design.push((pin.design, family, family_load * share));
                }
            }
        }
    }
    let mut found = Vec::new();
    for (addr, (budget, per_design)) in links {
        let total: f64 = per_design.iter().map(|(_, _, rate)| rate).sum();
        let Some(budget) = budget.map(|b| b as f64).filter(|&b| total > b) else {
            continue;
        };
        let contributions: Vec<String> = per_design
            .iter()
            .map(|&(i, family, rate)| format!("`{}`/{family} {rate:.1} msg/h", designs[i].name))
            .collect();
        let contributions = contributions.join(", ");
        // At the first contributing design's family declaration.
        let (i, family, _) = per_design[0];
        found.push(Diagnostic {
            severity: Severity::Warning,
            code: "W0602",
            message: format!(
                "deployment cut link `{addr}` is overloaded: {total:.1} msg/h against a budget of {budget:.1} msg/h"
            ),
            at: declaration(designs, i, family),
            notes: vec![(format!("per-design contributions: {contributions}"), None)],
        });
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

    fn analyze(src: &str, fleet: u64) -> (CapacityReport, Diagnostics) {
        let spec = compile_str(src).unwrap();
        let mut diags = Diagnostics::new();
        let report = detect(&spec, &DesignGraph::build(&spec), fleet, &mut diags);
        (report, diags)
    }

    /// The rate of the first edge matching `pick`, under the report's
    /// hypothesis.
    fn rate_of(report: &CapacityReport, pick: impl Fn(&EdgeCapacity) -> bool) -> Option<f64> {
        let edge = report.edges.iter().find(|e| pick(e)).unwrap();
        edge.msgs_per_hour(|_| report.fleet_size)
    }

    #[test]
    fn window_shorter_than_period_warns() {
        let (_, diags) = analyze(
            r#"
            device Meter { attribute home as String; source reading as Float; }
            device K { action a; }
            context Usage as Float[] {
              when periodic reading from Meter <1 hr>
                grouped by home every <1 min>
                always publish;
            }
            controller Out { when provided Usage do a on K; }
            "#,
            10,
        );
        assert!(diags.find("W0404").is_some());
    }

    #[test]
    fn window_multiple_of_period_is_clean() {
        let (_, diags) = analyze(
            r#"
            device Meter { attribute home as String; source reading as Float; }
            device K { action a; }
            context Usage as Float[] {
              when periodic reading from Meter <1 min>
                grouped by home every <1 hr>
                always publish;
            }
            controller Out { when provided Usage do a on K; }
            "#,
            10,
        );
        assert!(diags.find("W0404").is_none());
    }

    #[test]
    fn periodic_rates_scale_with_fleet() {
        let (report, _) = analyze(
            r#"
            device Meter { source reading as Float; }
            device K { action a; }
            context Usage as Float { when periodic reading from Meter <1 min> always publish; }
            controller Out { when provided Usage do a on K; }
            "#,
            100,
        );
        // 100 devices x 60 readings/hour.
        assert_eq!(
            rate_of(&report, |e| e.kind == LoadKind::Periodic),
            Some(6000.0)
        );
        // Context publishes once per delivery, centrally (not scaled).
        let trigger_edge = report.edges.iter().find(|e| e.to == "(Out)").unwrap();
        assert_eq!(trigger_edge.family, None);
        assert_eq!(trigger_edge.msgs_per_hour(|_| 100), Some(60.0));
        // Actuation fans back out to the fleet; the same edge scales with
        // any other count of its family.
        let do_edge = report
            .edges
            .iter()
            .find(|e| e.kind == LoadKind::Do)
            .unwrap();
        assert_eq!(do_edge.family.as_deref(), Some("K"));
        assert_eq!(do_edge.msgs_per_hour(|_| 100), Some(6000.0));
        assert_eq!(do_edge.msgs_per_hour(|_| 3), Some(180.0));
        assert_eq!(report.unknown_edges, 0);
    }

    /// The engine closes an `every <W>` window at the first poll at or
    /// after its deadline, so one device's `[Usage] -> (Out)` edge runs
    /// at `1 / (P·max(1, ⌈W/P⌉))`, not `1 / W`.
    #[test]
    fn grouping_window_retimes_publication() {
        for (period, window, per_hour) in [
            ("10 min", "1 hr", 1.0),
            ("10 min", "25 min", 2.0),
            ("1 hr", "1 min", 1.0),
            ("1 min", "0 min", 60.0),
        ] {
            let (report, _) = analyze(
                &format!(
                    r#"
                    device Meter {{ attribute home as String; source reading as Float; }}
                    device K {{ action a; }}
                    context Usage as Float[] {{
                      when periodic reading from Meter <{period}>
                        grouped by home every <{window}>
                        always publish;
                    }}
                    controller Out {{ when provided Usage do a on K; }}
                    "#
                ),
                1,
            );
            assert_eq!(
                rate_of(&report, |e| e.to == "(Out)"),
                Some(per_hour),
                "period {period}, window {window}"
            );
        }
    }

    #[test]
    fn event_rate_unknown_without_hint_known_with() {
        let (report, _) = analyze(
            r#"
            device Sensor { source motion as Boolean; }
            @qos(periodMs = 1000)
            device Beacon { source ping as Integer; }
            device K { action a; }
            context A as Boolean { when provided motion from Sensor always publish; }
            context B as Integer { when provided ping from Beacon always publish; }
            controller Out { when provided A do a on K; when provided B do a on K; }
            "#,
            10,
        );
        assert_eq!(rate_of(&report, |e| e.from == "Sensor.motion"), None);
        assert_eq!(rate_of(&report, |e| e.from == "Beacon.ping"), Some(36000.0));
        assert!(report.unknown_edges >= 1);
        let rendered = report.to_string();
        assert!(rendered.contains("capacity report"));
        assert!(rendered.contains("Beacon.ping"));
    }

    #[test]
    fn all_unknown_design_totals_positive_zero() {
        let (report, _) = analyze(
            r#"
            device Sensor { source motion as Boolean; }
            device K { action a; }
            context A as Boolean { when provided motion from Sensor always publish; }
            controller Out { when provided A do a on K; }
            "#,
            10,
        );
        assert_eq!(report.unknown_edges, report.edges.len());
        assert!(
            report
                .to_string()
                .ends_with("total known: 0.0 msg/h, 3 edge(s) unknown"),
            "{report}"
        );
    }
}
