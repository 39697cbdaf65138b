//! Pass 4b: rate propagation — window/period mismatches (W0404) and the
//! static capacity report.
//!
//! Message rates propagate forward through the dataflow graph in
//! topological order. Periodic subscriptions anchor the computation
//! (`1/period`); a `grouped by … every <W>` clause re-times publication
//! to once per window; event-driven sources are unknown at design time
//! unless the device carries a `@qos(periodMs = …)` hint. Device-facing
//! edges scale with a *fleet-size hypothesis* (how many deployed devices
//! match the family) — the small-to-large-scale knob of the paper.

use crate::diag::{Diagnostic, Diagnostics};
use crate::model::{ActivationTrigger, CheckedSpec, Device, InputRef, PublishMode};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

const MS_PER_HOUR: f64 = 3_600_000.0;

/// One edge of the capacity report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeCapacity {
    /// Producing endpoint (`Device.source`, `[Context]`, `(Controller)`).
    pub from: String,
    /// Consuming endpoint.
    pub to: String,
    /// Interaction kind: `periodic`, `event`, `publish`, `get`, or `do`.
    pub kind: String,
    /// Estimated messages per hour, `None` when unknown at design time.
    pub msgs_per_hour: Option<f64>,
    /// How the estimate was derived (or why there is none).
    pub note: String,
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
            let rate = match edge.msgs_per_hour {
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

/// Runs the rate pass: W0404 diagnostics plus the capacity report.
pub(crate) fn detect(
    spec: &CheckedSpec,
    fleet_size: u64,
    diags: &mut Diagnostics,
) -> CapacityReport {
    let fleet = fleet_size as f64;
    let mut edges = Vec::new();
    // Publication rate (msg/h) of each context, `None` when unknown.
    // Topological order guarantees producers are rated before consumers.
    let mut rate: BTreeMap<&str, Option<f64>> = BTreeMap::new();

    for ctx in spec.context_topo_order() {
        let mut own: Option<f64> = Some(0.0);
        for activation in &ctx.activations {
            // W0404: a window shorter than the delivery period closes
            // with at most one batch in it — aggregation degenerates.
            if let (ActivationTrigger::Periodic { period_ms, .. }, Some(grouping)) =
                (&activation.trigger, &activation.grouping)
            {
                if let Some(window_ms) = grouping.window_ms {
                    if window_ms < *period_ms {
                        diags.push(Diagnostic::warning(
                            "W0404",
                            format!(
                                "aggregation window ({window_ms} ms) is shorter than the delivery period ({period_ms} ms): each window sees at most one batch"
                            ),
                            grouping.window_span.unwrap_or(activation.span),
                        ));
                    }
                }
            }

            let activations_per_hour = match &activation.trigger {
                ActivationTrigger::Periodic {
                    device,
                    source,
                    period_ms,
                } => {
                    let per_device = MS_PER_HOUR / *period_ms as f64;
                    edges.push(EdgeCapacity {
                        from: format!("{device}.{source}"),
                        to: format!("[{}]", ctx.name),
                        kind: "periodic".to_owned(),
                        msgs_per_hour: Some(fleet * per_device),
                        note: format!("{fleet_size} devices x 1/{period_ms} ms, batched"),
                    });
                    // One activation per delivery, or per window when
                    // the readings are folded `every <W>`.
                    let window = activation.grouping.as_ref().and_then(|g| g.window_ms);
                    Some(match window {
                        Some(w) => MS_PER_HOUR / w as f64,
                        None => per_device,
                    })
                }
                ActivationTrigger::DeviceSource { device, source } => {
                    let hinted = spec.device(device).and_then(Device::qos_period_ms);
                    let per_hour = hinted.map(|p| fleet * (MS_PER_HOUR / p as f64));
                    edges.push(EdgeCapacity {
                        from: format!("{device}.{source}"),
                        to: format!("[{}]", ctx.name),
                        kind: "event".to_owned(),
                        msgs_per_hour: per_hour,
                        note: match hinted {
                            Some(p) => {
                                format!("{fleet_size} devices x @qos(periodMs = {p}) hint")
                            }
                            None => "event-driven; no @qos(periodMs) hint".to_owned(),
                        },
                    });
                    per_hour
                }
                ActivationTrigger::Context(from) => {
                    let upstream = rate.get(from.as_str()).copied().flatten();
                    edges.push(EdgeCapacity {
                        from: format!("[{from}]"),
                        to: format!("[{}]", ctx.name),
                        kind: "publish".to_owned(),
                        msgs_per_hour: upstream,
                        note: match upstream {
                            Some(_) => "publication rate of the producer".to_owned(),
                            None => "producer rate unknown".to_owned(),
                        },
                    });
                    upstream
                }
                ActivationTrigger::OnDemand => Some(0.0),
            };

            // `get` edges fire once per activation; device-facing gets
            // fan out to every matching deployed device.
            for get in &activation.gets {
                let (from, getscale, kindnote) = match get {
                    InputRef::DeviceSource { device, source } => (
                        format!("{device}.{source}"),
                        fleet,
                        format!("per activation x {fleet_size} devices"),
                    ),
                    InputRef::Context(name) => {
                        (format!("[{name}]"), 1.0, "per activation".to_owned())
                    }
                };
                edges.push(EdgeCapacity {
                    from,
                    to: format!("[{}]", ctx.name),
                    kind: "get".to_owned(),
                    msgs_per_hour: activations_per_hour.map(|r| r * getscale),
                    note: kindnote,
                });
            }

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

    for ctrl in spec.controllers() {
        for binding in &ctrl.bindings {
            let trigger_rate = rate.get(binding.context.as_str()).copied().flatten();
            edges.push(EdgeCapacity {
                from: format!("[{}]", binding.context),
                to: format!("({})", ctrl.name),
                kind: "publish".to_owned(),
                msgs_per_hour: trigger_rate,
                note: match trigger_rate {
                    Some(_) => "publication rate of the trigger context".to_owned(),
                    None => "trigger rate unknown".to_owned(),
                },
            });
            for (action, device) in &binding.actions {
                edges.push(EdgeCapacity {
                    from: format!("({})", ctrl.name),
                    to: format!("{device}.{action}()"),
                    kind: "do".to_owned(),
                    msgs_per_hour: trigger_rate.map(|r| r * fleet),
                    note: format!("per trigger x {fleet_size} matching devices"),
                });
            }
        }
    }

    let total = edges.iter().filter_map(|e| e.msgs_per_hour).sum::<f64>();
    let unknown = edges.iter().filter(|e| e.msgs_per_hour.is_none()).count();
    CapacityReport {
        fleet_size,
        edges,
        total_msgs_per_hour: total,
        unknown_edges: unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

    fn analyze(src: &str, fleet: u64) -> (CapacityReport, Diagnostics) {
        let spec = compile_str(src).unwrap();
        let mut diags = Diagnostics::new();
        let report = detect(&spec, fleet, &mut diags);
        (report, diags)
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
        let source_edge = report.edges.iter().find(|e| e.kind == "periodic").unwrap();
        // 100 devices x 60 readings/hour.
        assert_eq!(source_edge.msgs_per_hour, Some(6000.0));
        // Context publishes once per delivery, centrally (not scaled).
        let trigger_edge = report.edges.iter().find(|e| e.to == "(Out)").unwrap();
        assert_eq!(trigger_edge.msgs_per_hour, Some(60.0));
        // Actuation fans back out to the fleet.
        let do_edge = report.edges.iter().find(|e| e.kind == "do").unwrap();
        assert_eq!(do_edge.msgs_per_hour, Some(6000.0));
        assert_eq!(report.unknown_edges, 0);
    }

    #[test]
    fn grouping_window_retimes_publication() {
        let (report, _) = analyze(
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
            100,
        );
        let trigger_edge = report.edges.iter().find(|e| e.to == "(Out)").unwrap();
        assert_eq!(trigger_edge.msgs_per_hour, Some(1.0));
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
        let unhinted = report
            .edges
            .iter()
            .find(|e| e.from == "Sensor.motion")
            .unwrap();
        assert_eq!(unhinted.msgs_per_hour, None);
        let hinted = report
            .edges
            .iter()
            .find(|e| e.from == "Beacon.ping")
            .unwrap();
        assert_eq!(hinted.msgs_per_hour, Some(36000.0));
        assert!(report.unknown_edges >= 1);
        let rendered = report.to_string();
        assert!(rendered.contains("capacity report"));
        assert!(rendered.contains("Beacon.ping"));
    }
}
