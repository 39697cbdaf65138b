//! Requirements extraction and infrastructure matching — the paper's §VI
//! research question, implemented:
//!
//! > *"Can design declarations be used to match the requirements of an
//! > application with the resources of an infrastructure? The application
//! > requirements could be extracted (or estimated) from the design
//! > declarations; they could include devices, network bandwidth, and
//! > processing capability."*
//!
//! [`estimate`] derives an [`AppRequirements`] from a checked design:
//! which device families the application binds to (and how — sensing,
//! polling, actuation), the message rate its periodic contracts imply per
//! bound entity, and the processing its `grouped by`/MapReduce clauses
//! demand. [`match_infrastructure`] then checks those requirements
//! against a concrete [`Infrastructure`] description and reports what is
//! missing (errors: the design is not deployable there) or tight
//! (warnings) as [`Diagnostic`]s, each at the declaration it concerns:
//!
//! | Code | Rule |
//! |------|------|
//! | E0603 | no deployed entity of a device family the design uses |
//! | W0606 | event-driven traffic comes on top of a limited network capacity |
//! | W0607 | declared MapReduce phases get at most one worker |
//!
//! Both read the one load model, [`crate::analysis::rates`]: families
//! and usage are its edges' device ends. The budgets are its one budget
//! pass, run with the infrastructure's entity counts: the network
//! capacity against the periodic edges (E0604 / W0605, in the
//! [`crate::analysis`] table) and each `@qos(capacityPerHour)` (W0407).

use crate::analysis::graph::{DesignGraph, EdgeKind, Node};
use crate::analysis::rates::{self, EdgeCapacity, LoadKind};
use crate::analysis::DesignRef;
use crate::diag::{Diagnostic, Diagnostics};
use crate::model::CheckedSpec;
use crate::span::{MultiSourceMap, Span};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// How an application uses a device family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceUsage {
    /// Some context subscribes to a source event-driven.
    pub event_sources: bool,
    /// Some context polls a source periodically.
    pub polled_sources: bool,
    /// Some context reads a source query-driven (`get`).
    pub queried_sources: bool,
    /// Some controller performs actions on it.
    pub actuated: bool,
}

/// One device family the application must be able to bind.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceRequirement {
    /// The declared device type (entities of any subtype qualify).
    pub device_type: String,
    /// How the application uses the family.
    pub usage: DeviceUsage,
    /// Messages per hour each bound entity of this family contributes
    /// through *periodic* contracts (the statically known part of the
    /// bandwidth demand).
    pub periodic_msgs_per_entity_hour: f64,
}

/// One data-processing obligation derived from a context declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessingRequirement {
    /// The declaring context.
    pub context: String,
    /// The polled device family (readings scale with its entity count).
    pub device_type: String,
    /// Delivery period in milliseconds.
    pub period_ms: u64,
    /// Aggregation window in milliseconds, when declared.
    pub window_ms: Option<u64>,
    /// Whether the design declares MapReduce phases (i.e. the developer
    /// expects data volumes that need parallel processing).
    pub map_reduce: bool,
}

/// Requirements extracted from a design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRequirements {
    /// Required device families, keyed by declared type.
    pub devices: BTreeMap<String, DeviceRequirement>,
    /// Processing obligations of periodic contexts.
    pub processing: Vec<ProcessingRequirement>,
    /// Whether any source is consumed event-driven (bandwidth for these
    /// depends on environment activity and cannot be bounded statically).
    pub has_event_driven_load: bool,
}

/// A concrete infrastructure offer: what is deployed and what the
/// network/compute substrate provides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Infrastructure {
    /// Bound entities per *exact* device type.
    pub entities: BTreeMap<String, u32>,
    /// Network capacity in messages per hour, if limited (e.g. LoRa duty
    /// cycles); `None` = unconstrained.
    pub msgs_per_hour_capacity: Option<f64>,
    /// Worker threads available for declared MapReduce processing.
    pub parallel_workers: u32,
}

impl Infrastructure {
    /// Entities available for `device_type`, counting subtypes per the
    /// design's `extends` hierarchy.
    fn family_count(&self, spec: &CheckedSpec, device_type: &str) -> u32 {
        self.entities
            .iter()
            .filter(|(ty, _)| spec.device_is_subtype(ty, device_type))
            .map(|(_, n)| *n)
            .sum()
    }
}

/// The result of matching a design against an infrastructure.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchReport {
    /// What is missing (errors) or tight (warnings), errors first; a
    /// location is a declaration of the matched design.
    pub diagnostics: Diagnostics,
    /// Estimated statically-known network demand (messages/hour).
    pub estimated_msgs_per_hour: f64,
}

impl MatchReport {
    /// Whether the application can run: no error diagnostic.
    #[must_use]
    pub fn deployable(&self) -> bool {
        !self.diagnostics.has_errors()
    }

    /// The `--match` report: each finding rendered against the design's
    /// `sources` (see [`Diagnostic::render`]), then the verdict line.
    #[must_use]
    pub fn render(&self, sources: &MultiSourceMap, named: bool) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            out.push_str(&diag.render(sources, named));
            out.push('\n');
        }
        out.push_str(&self.to_string());
        out
    }
}

impl fmt::Display for MatchReport {
    /// The verdict line. [`MatchReport::render`] puts the findings, which
    /// need the design's source, before it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let errors = self.diagnostics.error_count();
        write!(
            f,
            "{} ({errors} error(s), {} warning(s), ~{:.0} periodic msgs/hour)",
            if self.deployable() {
                "DEPLOYABLE"
            } else {
                "NOT DEPLOYABLE"
            },
            self.diagnostics.len() - errors,
            self.estimated_msgs_per_hour
        )
    }
}

/// The design's load-model edges (read here: periodic rates, which no
/// fleet hypothesis changes; W0404 is the lint's to report).
fn load_model(spec: &CheckedSpec, graph: &DesignGraph) -> Vec<EdgeCapacity> {
    rates::detect(spec, graph, 1, &mut Diagnostics::new()).edges
}

/// Extracts the application requirements from a checked design (§VI).
#[must_use]
pub fn estimate(spec: &CheckedSpec) -> AppRequirements {
    let graph = DesignGraph::build(spec);
    let mut devices: BTreeMap<String, DeviceRequirement> = BTreeMap::new();
    for edge in load_model(spec, &graph) {
        let Some(family) = edge.family else {
            continue;
        };
        let req = devices.entry(family.clone()).or_default();
        req.device_type = family;
        match edge.kind {
            LoadKind::Periodic => {
                req.usage.polled_sources = true;
                req.periodic_msgs_per_entity_hour += edge.msgs_per_device_hour.unwrap_or(0.0);
            }
            LoadKind::Event => req.usage.event_sources = true,
            LoadKind::Get => req.usage.queried_sources = true,
            LoadKind::Do => req.usage.actuated = true,
            LoadKind::Publish => {}
        }
    }

    // One row per periodic clause, in context order.
    let mut processing = Vec::new();
    for edge in &graph.edges {
        let (
            EdgeKind::Periodic {
                period_ms,
                window_ms,
            },
            Node::Context(context),
            Some(device_type),
        ) = (edge.kind, &graph.nodes[edge.to], &edge.family)
        else {
            continue;
        };
        let grouping = graph
            .activation(spec, edge)
            .and_then(|a| a.grouping.as_ref());
        processing.push(ProcessingRequirement {
            context: context.clone(),
            device_type: device_type.clone(),
            period_ms,
            window_ms,
            map_reduce: grouping.is_some_and(|g| g.map_reduce.is_some()),
        });
    }

    AppRequirements {
        has_event_driven_load: devices.values().any(|req| req.usage.event_sources),
        devices,
        processing,
    }
}

/// Matches extracted requirements against an infrastructure description
/// (§VI), reporting each shortfall as a diagnostic.
#[must_use]
pub fn match_infrastructure(
    spec: &CheckedSpec,
    requirements: &AppRequirements,
    infrastructure: &Infrastructure,
) -> MatchReport {
    let device = |name: &str| spec.device(name).map_or(Span::DUMMY, |d| d.span);
    let mut diagnostics = Diagnostics::new();

    // Devices: every required family needs at least one bound entity.
    for req in requirements.devices.values() {
        if infrastructure.family_count(spec, &req.device_type) == 0 {
            diagnostics.push(Diagnostic::error(
                "E0603",
                format!(
                    "no entity of family `{}` is deployed, but the design {}",
                    req.device_type,
                    describe_usage(req.usage)
                ),
                device(&req.device_type),
            ));
        }
    }

    // Budgets: the one budget pass, every edge scaled by the entities
    // deployed of its family.
    let entities = |family: &str| u64::from(infrastructure.family_count(spec, family));
    let graph = DesignGraph::build(spec);
    let budgets = rates::judge(
        &[DesignRef { name: "", spec }],
        std::slice::from_ref(&graph),
        &[load_model(spec, &graph)],
        &entities,
        &[],
        infrastructure.msgs_per_hour_capacity,
    );
    diagnostics.extend(budgets.together);
    diagnostics.extend(budgets.alone);
    if infrastructure.msgs_per_hour_capacity.is_some() {
        if let Some(req) = requirements
            .devices
            .values()
            .find(|req| req.usage.event_sources)
        {
            diagnostics.push(Diagnostic::warning(
                "W0606",
                "event-driven subscriptions add activity-dependent traffic on top \
                 of the periodic estimate",
                device(&req.device_type),
            ));
        }
    }

    // Processing: declared MapReduce wants workers.
    for proc in &requirements.processing {
        if proc.map_reduce && infrastructure.parallel_workers <= 1 {
            diagnostics.push(Diagnostic::warning(
                "W0607",
                format!(
                    "context `{}` declares MapReduce phases, but only {} worker(s) are \
                     available; processing falls back to serial",
                    proc.context, infrastructure.parallel_workers
                ),
                spec.context(&proc.context)
                    .map_or(Span::DUMMY, |ctx| ctx.span),
            ));
        }
    }

    MatchReport {
        diagnostics,
        estimated_msgs_per_hour: budgets.periodic_msgs_per_hour,
    }
}

fn describe_usage(usage: DeviceUsage) -> String {
    let mut parts = Vec::new();
    if usage.event_sources {
        parts.push("subscribes to its events");
    }
    if usage.polled_sources {
        parts.push("polls it periodically");
    }
    if usage.queried_sources {
        parts.push("queries it on demand");
    }
    if usage.actuated {
        parts.push("actuates it");
    }
    if parts.is_empty() {
        "declares it".to_owned()
    } else {
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

    const PARKING: &str = r#"
        device PresenceSensor {
          attribute parkingLot as String;
          source presence as Boolean;
        }
        device DisplayPanel { action update(status as String); }
        device ParkingEntrancePanel extends DisplayPanel {
          attribute location as String;
        }
        context ParkingAvailability as Integer[] {
          when periodic presence from PresenceSensor <10 min>
            grouped by parkingLot
            with map as Boolean reduce as Integer
            always publish;
        }
        context Spike as Boolean {
          when provided presence from PresenceSensor maybe publish;
        }
        controller PanelCtl {
          when provided ParkingAvailability do update on ParkingEntrancePanel;
        }
        controller SpikeCtl {
          when provided Spike do update on ParkingEntrancePanel;
        }
    "#;

    fn parking_requirements() -> (CheckedSpec, AppRequirements) {
        let spec = compile_str(PARKING).unwrap();
        let req = estimate(&spec);
        (spec, req)
    }

    #[test]
    fn extraction_finds_families_usage_and_rates() {
        let (_, req) = parking_requirements();
        assert_eq!(req.devices.len(), 2);
        let sensor = &req.devices["PresenceSensor"];
        assert!(sensor.usage.polled_sources);
        assert!(sensor.usage.event_sources);
        assert!(!sensor.usage.actuated);
        // One 10-minute periodic contract = 6 msgs/hour per entity.
        assert!((sensor.periodic_msgs_per_entity_hour - 6.0).abs() < 1e-9);
        let panel = &req.devices["ParkingEntrancePanel"];
        assert!(panel.usage.actuated);
        assert!(!panel.usage.polled_sources);
        assert_eq!(panel.periodic_msgs_per_entity_hour, 0.0);
        assert!(req.has_event_driven_load);
        assert_eq!(req.processing.len(), 1);
        assert!(req.processing[0].map_reduce);
    }

    #[test]
    fn complete_infrastructure_is_deployable() {
        let (spec, req) = parking_requirements();
        let infra = Infrastructure {
            entities: [
                ("PresenceSensor".to_owned(), 800),
                ("ParkingEntrancePanel".to_owned(), 8),
            ]
            .into_iter()
            .collect(),
            msgs_per_hour_capacity: None,
            parallel_workers: 8,
        };
        let report = match_infrastructure(&spec, &req, &infra);
        assert!(report.deployable(), "{report}");
        // 800 sensors x 6 msgs/hour.
        assert!((report.estimated_msgs_per_hour - 4800.0).abs() < 1e-9);
    }

    #[test]
    fn missing_device_family_blocks_deployment() {
        let (spec, req) = parking_requirements();
        let infra = Infrastructure {
            entities: [("PresenceSensor".to_owned(), 100)].into_iter().collect(),
            msgs_per_hour_capacity: None,
            parallel_workers: 4,
        };
        let report = match_infrastructure(&spec, &req, &infra);
        assert!(!report.deployable(), "{report}");
        assert_eq!(report.diagnostics.error_count(), 1);
        let missing = report.diagnostics.find("E0603").unwrap();
        assert!(missing.message.contains("`ParkingEntrancePanel`"));
        // At the family's declaration.
        let at = missing.at.span;
        assert_eq!(&PARKING[at.start..at.end], "ParkingEntrancePanel");
        // Errors first.
        assert_eq!(report.diagnostics.iter().next(), Some(missing));
    }

    #[test]
    fn subtypes_satisfy_family_requirements() {
        let (spec, req) = parking_requirements();
        // A hypothetical subtype of ParkingEntrancePanel would count; here
        // we verify the family arithmetic through the base/derived pair.
        let infra = Infrastructure {
            entities: [
                ("PresenceSensor".to_owned(), 10),
                // Counting against the DisplayPanel base: the requirement is
                // on ParkingEntrancePanel, and DisplayPanel is its *parent*,
                // so plain DisplayPanels must NOT satisfy it.
                ("DisplayPanel".to_owned(), 5),
            ]
            .into_iter()
            .collect(),
            msgs_per_hour_capacity: None,
            parallel_workers: 1,
        };
        let report = match_infrastructure(&spec, &req, &infra);
        assert!(
            !report.deployable(),
            "a parent-type entity must not satisfy a subtype requirement: {report}"
        );
    }

    #[test]
    fn network_capacity_thresholds() {
        let (spec, req) = parking_requirements();
        let infra = |capacity: f64| Infrastructure {
            entities: [
                ("PresenceSensor".to_owned(), 1000), // 6000 msgs/hour
                ("ParkingEntrancePanel".to_owned(), 8),
            ]
            .into_iter()
            .collect(),
            msgs_per_hour_capacity: Some(capacity),
            parallel_workers: 4,
        };
        // Insufficient capacity.
        let report = match_infrastructure(&spec, &req, &infra(5_000.0));
        assert!(!report.deployable(), "{report}");
        // Tight (between 80% and 100%).
        let report = match_infrastructure(&spec, &req, &infra(7_000.0));
        assert!(report.deployable());
        assert!(report.diagnostics.find("W0605").is_some(), "{report}");
        // Comfortable.
        let report = match_infrastructure(&spec, &req, &infra(100_000.0));
        assert!(report.deployable());
        assert!(report.diagnostics.find("W0605").is_none(), "{report}");
        // The event-driven caveat still warns.
        let caveat = report.diagnostics.find("W0606").unwrap();
        assert!(caveat.message.contains("event-driven"));
    }

    #[test]
    fn mapreduce_with_single_worker_is_flagged() {
        let (spec, req) = parking_requirements();
        let infra = Infrastructure {
            entities: [
                ("PresenceSensor".to_owned(), 10),
                ("ParkingEntrancePanel".to_owned(), 2),
            ]
            .into_iter()
            .collect(),
            msgs_per_hour_capacity: None,
            parallel_workers: 1,
        };
        let report = match_infrastructure(&spec, &req, &infra);
        assert!(report.deployable(), "tight, not missing: {report}");
        let serial = report.diagnostics.find("W0607").unwrap();
        assert!(serial.message.contains("`ParkingAvailability`"));
    }

    #[test]
    fn report_displays_verdict_and_findings() {
        let (spec, req) = parking_requirements();
        let report = match_infrastructure(
            &spec,
            &req,
            &Infrastructure {
                entities: BTreeMap::new(),
                msgs_per_hour_capacity: None,
                parallel_workers: 1,
            },
        );
        assert_eq!(
            report.to_string(),
            "NOT DEPLOYABLE (2 error(s), 1 warning(s), ~0 periodic msgs/hour)"
        );
        let sources = MultiSourceMap::new([("parking.spec", PARKING)]);
        let text = report.render(&sources, false);
        assert!(
            text.contains(
                "error[E0603]: no entity of family `ParkingEntrancePanel` is deployed, \
                 but the design actuates it at 7:16\n   7 |         device ParkingEntrancePanel"
            ),
            "{text}"
        );
        assert!(
            text.ends_with("\nNOT DEPLOYABLE (2 error(s), 1 warning(s), ~0 periodic msgs/hour)"),
            "{text}"
        );
    }

    #[test]
    fn diagnostics_of_a_multi_file_design_name_their_file() {
        let (taxonomy, app) = PARKING.split_at(PARKING.find("context").unwrap());
        let spec = crate::compile_sources([("tax.spec", taxonomy), ("app.spec", app)]).unwrap();
        let infra = Infrastructure {
            entities: [("PresenceSensor".to_owned(), 10)].into_iter().collect(),
            msgs_per_hour_capacity: None,
            parallel_workers: 1,
        };
        let mut report = match_infrastructure(&spec, &estimate(&spec), &infra);
        // The model's spans count through the concatenation of both
        // files; `locate` attributes each location to its file.
        let sources = MultiSourceMap::new([("tax.spec", taxonomy), ("app.spec", app)]);
        report.diagnostics = report.diagnostics.locate(&sources);
        let text = report.render(&sources, true);
        // The missing panel family is declared in the taxonomy, the
        // MapReduce context in the app.
        assert!(text.contains("actuates it at tax.spec:7:16\n"), "{text}");
        assert!(
            text.contains("falls back to serial at app.spec:1:9\n"),
            "{text}"
        );
    }

    /// The one budget pass runs under `--match` too, with the
    /// infrastructure's entity counts on both sides of the comparison.
    #[test]
    fn a_capacity_budget_is_held_to_the_infrastructures_counts() {
        let spec = compile_str(
            r#"
            @qos(capacityPerHour = 100)
            device Meter { source reading as Float; }
            device Gauge { action show(value as Float); }
            context Sweep as Float { when periodic reading from Meter <30 s> always publish; }
            controller Board { when provided Sweep do show on Gauge; }
            "#,
        )
        .unwrap();
        let infra = Infrastructure {
            entities: [("Meter".to_owned(), 40), ("Gauge".to_owned(), 1)]
                .into_iter()
                .collect(),
            msgs_per_hour_capacity: None,
            parallel_workers: 1,
        };
        let report = match_infrastructure(&spec, &estimate(&spec), &infra);
        assert!(report.deployable(), "{report}");
        assert_eq!(
            report.diagnostics.find("W0407").unwrap().message,
            "the design overloads device family `Meter`: 4800.0 msg/h against a budget of \
             4000.0 msg/h (@qos(capacityPerHour = 100) x 40 devices)"
        );
    }

    #[test]
    fn requirements_serialize() {
        let (_, req) = parking_requirements();
        let json = serde_json::to_string(&req).unwrap();
        let back: AppRequirements = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }
}
