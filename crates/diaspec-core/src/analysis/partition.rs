//! Partition validity: can a design be deployed across these nodes?
//!
//! The deployment subsystem splits one design into per-node units — a
//! coordinator running the orchestration engine plus edge nodes hosting
//! device slices — bridged by a transport. Before any manifest is
//! emitted, this pass checks that a [`PartitionPlan`] is actually a
//! partition of the design and that every dataflow route crosses *at
//! most the declared cut*: a route is either node-local or connects an
//! edge node with the coordinator. Direct edge-to-edge routes have no
//! link in the star topology the deployment layer builds, so they are
//! rejected statically instead of failing at runtime.
//!
//! Codes (see the table in [`super`]): E0501 incomplete/ambiguous
//! assignment, E0502 unknown name in the plan, E0503 route crossing an
//! undeclared cut, W0501 placement with no local interaction.

use crate::diag::{Diagnostic, Diagnostics};
use crate::model::CheckedSpec;
use crate::span::Span;
use std::collections::BTreeMap;

use super::graph::{DesignGraph, Edge, Node};

/// Where one deployment node's slice of the design runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionNode {
    /// Node name (e.g. `"coordinator"`, `"edge0"`).
    pub name: String,
    /// Contexts and controllers placed on this node. Each component
    /// lives on exactly one node.
    pub components: Vec<String>,
    /// Device families with instances on this node. A family is a
    /// fleet, so the same family may appear on several nodes (e.g.
    /// presence sensors sharded per parking lot across edge nodes).
    pub devices: Vec<String>,
}

/// A proposed split of a design across deployment nodes.
///
/// The topology is a star: every non-coordinator node has exactly one
/// link, to the coordinator. That link is the *declared cut* routes may
/// cross.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// The node running the orchestration engine.
    pub coordinator: String,
    /// All nodes, coordinator included.
    pub nodes: Vec<PartitionNode>,
}

/// One dataflow route that crosses the declared cut — it will travel
/// the transport at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutRoute {
    /// Producing side: `(node, component-or-device)`.
    pub from: (String, String),
    /// Consuming side: `(node, component-or-device)`.
    pub to: (String, String),
    /// The device member the route uses: the source a device route reads
    /// or the action a `do ... on` route invokes. `None` between two
    /// components.
    pub member: Option<String>,
}

/// The result of validating one plan.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Findings, in E0502 / E0501 / E0503 / W0501 order.
    pub diagnostics: Diagnostics,
    /// Routes that legitimately cross the coordinator cut (empty when
    /// the plan is invalid enough that routes cannot be resolved).
    pub cut_routes: Vec<CutRoute>,
}

impl PartitionReport {
    /// Whether the plan partitions the design and respects the cut.
    #[must_use]
    pub fn is_deployable(&self) -> bool {
        !self.diagnostics.has_errors()
    }
}

/// One directed dataflow route, with the device member it uses (see
/// [`CutRoute::member`]) and the span of the consuming clause.
struct Route<'a> {
    from: &'a str,
    to: &'a str,
    member: Option<&'a str>,
    span: Span,
}

/// Validates `plan` against `spec`.
#[must_use]
pub fn validate(spec: &CheckedSpec, plan: &PartitionPlan) -> PartitionReport {
    let mut diagnostics = Diagnostics::new();
    let mut assignment: BTreeMap<&str, Vec<&str>> = BTreeMap::new();

    // E0502 — the plan must only name things the design declares, and
    // the coordinator must be one of the declared nodes.
    if !plan.nodes.iter().any(|n| n.name == plan.coordinator) {
        diagnostics.push(Diagnostic::error(
            "E0502",
            format!(
                "partition plan names coordinator `{}` but declares no such node",
                plan.coordinator
            ),
            Span::DUMMY,
        ));
    }
    let mut seen_nodes: Vec<&str> = Vec::new();
    for node in &plan.nodes {
        if seen_nodes.contains(&node.name.as_str()) {
            diagnostics.push(Diagnostic::error(
                "E0502",
                format!("partition plan declares node `{}` twice", node.name),
                Span::DUMMY,
            ));
        }
        seen_nodes.push(&node.name);
        for component in &node.components {
            if spec.context(component).is_none() && spec.controller(component).is_none() {
                diagnostics.push(Diagnostic::error(
                    "E0502",
                    format!(
                        "node `{}` places unknown component `{component}`",
                        node.name
                    ),
                    Span::DUMMY,
                ));
                continue;
            }
            assignment.entry(component).or_default().push(&node.name);
        }
        for device in &node.devices {
            if spec.device(device).is_none() {
                diagnostics.push(Diagnostic::error(
                    "E0502",
                    format!("node `{}` places unknown device `{device}`", node.name),
                    Span::DUMMY,
                ));
                continue;
            }
            assignment.entry(device).or_default().push(&node.name);
        }
    }

    // E0501 — every context and controller is placed on exactly one
    // node (they are singleton computations); every device family is
    // placed on at least one (a family is a fleet, so its instances may
    // be sharded across several edge nodes).
    let declared: Vec<(&str, Span)> = spec
        .contexts()
        .map(|c| (c.name.as_str(), c.span))
        .chain(spec.controllers().map(|c| (c.name.as_str(), c.span)))
        .chain(spec.devices().map(|d| (d.name.as_str(), d.span)))
        .collect();
    for (name, span) in &declared {
        let is_component = spec.context(name).is_some() || spec.controller(name).is_some();
        match assignment.get(name).map(Vec::as_slice) {
            None | Some([]) => diagnostics.push(Diagnostic::error(
                "E0501",
                format!("`{name}` is assigned to no deployment node"),
                *span,
            )),
            Some(nodes) if is_component && nodes.len() > 1 => diagnostics.push(Diagnostic::error(
                "E0501",
                format!(
                    "component `{name}` is assigned to {} nodes ({}) — a partition places each \
                     component on exactly one",
                    nodes.len(),
                    nodes.join(", ")
                ),
                *span,
            )),
            Some(_) => {}
        }
    }

    // E0503 — every route is node-local or crosses the coordinator cut.
    // A device family placed on several nodes contributes one crossing
    // per hosting node.
    let graph = DesignGraph::build(spec);
    let all_routes = routes(spec, &graph);
    let mut cut_routes = Vec::new();
    for route in &all_routes {
        let (Some(from_nodes), Some(to_nodes)) =
            (assignment.get(route.from), assignment.get(route.to))
        else {
            continue; // already an E0501/E0502 above
        };
        for &from_node in from_nodes {
            for &to_node in to_nodes {
                if from_node == to_node {
                    continue;
                }
                if from_node == plan.coordinator || to_node == plan.coordinator {
                    cut_routes.push(CutRoute {
                        from: (from_node.to_string(), route.from.to_string()),
                        to: (to_node.to_string(), route.to.to_string()),
                        member: route.member.map(str::to_owned),
                    });
                    continue;
                }
                diagnostics.push(
                    Diagnostic::error(
                        "E0503",
                        format!(
                            "route `{}` -> `{}` crosses from node `{from_node}` to node \
                             `{to_node}` without passing the coordinator",
                            route.from, route.to
                        ),
                        route.span,
                    )
                    .with_note(
                        format!(
                            "the deployment topology is a star: every link connects an edge \
                             node to `{}`; place one endpoint there or on the same edge node",
                            plan.coordinator
                        ),
                        None,
                    ),
                );
            }
        }
    }

    // W0501 — a component whose every route leaves its node: the
    // placement buys no locality.
    if !diagnostics.has_errors() {
        for (name, span) in &declared {
            if spec.context(name).is_none() && spec.controller(name).is_none() {
                continue;
            }
            let Some(&[node]) = assignment.get(name).map(Vec::as_slice) else {
                continue;
            };
            if node == plan.coordinator {
                continue;
            }
            let mut touches = 0usize;
            let mut local = 0usize;
            for route in &all_routes {
                if route.from == *name || route.to == *name {
                    touches += 1;
                    let other = if route.from == *name {
                        route.to
                    } else {
                        route.from
                    };
                    if assignment.get(other).is_some_and(|n| n.contains(&node)) {
                        local += 1;
                    }
                }
            }
            if touches > 0 && local == 0 {
                diagnostics.push(Diagnostic::warning(
                    "W0501",
                    format!(
                        "`{name}` is placed on `{node}` but all {touches} of its routes leave \
                         that node — every interaction pays the transport"
                    ),
                    *span,
                ));
            }
        }
    }

    PartitionReport {
        diagnostics,
        cut_routes,
    }
}

/// Every directed dataflow route in the design, one per edge of its
/// graph, with the span of the declaring clause. A device end is named
/// by the family its clause writes.
fn routes<'a>(spec: &CheckedSpec, graph: &'a DesignGraph) -> Vec<Route<'a>> {
    let end = |id: usize, edge: &'a Edge| match &graph.nodes[id] {
        Node::Source { source: member, .. } | Node::Action { action: member, .. } => (
            edge.family.as_deref().unwrap_or_default(),
            Some(member.as_str()),
        ),
        Node::Context(name) | Node::Controller(name) => (name.as_str(), None),
    };
    graph
        .edges
        .iter()
        .map(|edge| {
            let (from, from_member) = end(edge.from, edge);
            let (to, to_member) = end(edge.to, edge);
            Route {
                from,
                to,
                member: from_member.or(to_member),
                span: graph.span(spec, edge),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

    const SPEC: &str = r#"
        device Sensor { source motion as Boolean; }
        device Panel { action show; }
        context Presence as Boolean { when provided motion from Sensor always publish; }
        controller Lights { when provided Presence do show on Panel; }
    "#;

    fn node(name: &str, components: &[&str], devices: &[&str]) -> PartitionNode {
        PartitionNode {
            name: name.to_string(),
            components: components.iter().map(|s| (*s).to_string()).collect(),
            devices: devices.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    #[test]
    fn star_partition_is_deployable_and_reports_cut_routes() {
        let spec = compile_str(SPEC).unwrap();
        let plan = PartitionPlan {
            coordinator: "coordinator".into(),
            nodes: vec![
                node("coordinator", &["Presence", "Lights"], &[]),
                node("edge0", &[], &["Sensor", "Panel"]),
            ],
        };
        let report = validate(&spec, &plan);
        assert!(report.is_deployable(), "{:?}", report.diagnostics);
        // Sensor -> Presence and Lights -> Panel both cross the cut.
        assert_eq!(report.cut_routes.len(), 2);
        assert!(report
            .cut_routes
            .iter()
            .all(|r| r.from.0 == "coordinator" || r.to.0 == "coordinator"));
    }

    #[test]
    fn two_actions_on_one_device_are_two_distinguishable_cut_routes() {
        let spec = compile_str(
            r#"
            device Sensor { source motion as Boolean; }
            device Light { action setOn; action setOff; }
            context Presence as Boolean { when provided motion from Sensor always publish; }
            controller Lights { when provided Presence do setOn on Light do setOff on Light; }
            "#,
        )
        .unwrap();
        let plan = PartitionPlan {
            coordinator: "coordinator".into(),
            nodes: vec![
                node("coordinator", &["Presence", "Lights"], &[]),
                node("edge0", &[], &["Sensor", "Light"]),
            ],
        };
        let report = validate(&spec, &plan);
        assert!(report.is_deployable(), "{:?}", report.diagnostics);
        let to_light: Vec<Option<&str>> = report
            .cut_routes
            .iter()
            .filter(|r| r.to.1 == "Light")
            .map(|r| r.member.as_deref())
            .collect();
        assert_eq!(to_light, [Some("setOn"), Some("setOff")]);
        let from_sensor = report.cut_routes.iter().find(|r| r.from.1 == "Sensor");
        assert_eq!(from_sensor.unwrap().member.as_deref(), Some("motion"));
        // Every route is distinct once the member is named.
        for (i, a) in report.cut_routes.iter().enumerate() {
            assert!(report.cut_routes[i + 1..].iter().all(|b| a != b), "{a:?}");
        }
    }

    #[test]
    fn unassigned_device_and_doubly_assigned_component_are_e0501() {
        let spec = compile_str(SPEC).unwrap();
        let plan = PartitionPlan {
            coordinator: "coordinator".into(),
            nodes: vec![
                node("coordinator", &["Presence", "Lights"], &["Sensor"]),
                node("edge0", &["Presence"], &["Sensor"]),
            ],
        };
        let report = validate(&spec, &plan);
        assert!(!report.is_deployable());
        let messages: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "E0501")
            .map(|d| d.message.clone())
            .collect();
        // Panel is unassigned; Presence (a component) is on two nodes.
        // Sensor on two nodes is fine: device families are fleets.
        assert!(
            messages.iter().any(|m| m.contains("`Panel`")),
            "{messages:?}"
        );
        assert!(
            messages
                .iter()
                .any(|m| m.contains("`Presence`") && m.contains("2 nodes")),
            "{messages:?}"
        );
        assert!(
            !messages.iter().any(|m| m.contains("`Sensor`")),
            "{messages:?}"
        );
    }

    #[test]
    fn sharded_device_family_crosses_the_cut_from_every_hosting_node() {
        let spec = compile_str(SPEC).unwrap();
        let plan = PartitionPlan {
            coordinator: "coordinator".into(),
            nodes: vec![
                node("coordinator", &["Presence", "Lights"], &["Panel"]),
                node("edge0", &[], &["Sensor"]),
                node("edge1", &[], &["Sensor"]),
            ],
        };
        let report = validate(&spec, &plan);
        assert!(report.is_deployable(), "{:?}", report.diagnostics);
        // Sensor -> Presence crosses once per hosting edge node.
        let sensor_cuts = report
            .cut_routes
            .iter()
            .filter(|r| r.from.1 == "Sensor")
            .count();
        assert_eq!(sensor_cuts, 2);
    }

    #[test]
    fn unknown_names_are_e0502() {
        let spec = compile_str(SPEC).unwrap();
        let plan = PartitionPlan {
            coordinator: "missing".into(),
            nodes: vec![node(
                "coordinator",
                &["Presence", "Lights", "Ghost"],
                &["Sensor", "Panel", "Phantom"],
            )],
        };
        let report = validate(&spec, &plan);
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes.iter().filter(|c| **c == "E0502").count(), 3);
    }

    #[test]
    fn edge_to_edge_route_is_e0503() {
        let spec = compile_str(SPEC).unwrap();
        let plan = PartitionPlan {
            coordinator: "coordinator".into(),
            nodes: vec![
                node("coordinator", &[], &[]),
                node("edge0", &["Presence", "Lights"], &["Sensor"]),
                node("edge1", &[], &["Panel"]),
            ],
        };
        let report = validate(&spec, &plan);
        assert!(!report.is_deployable());
        let diag = report.diagnostics.find("E0503").expect("E0503");
        assert!(
            diag.message.contains("`Lights` -> `Panel`"),
            "{}",
            diag.message
        );
        assert_ne!(diag.at.span, Span::DUMMY, "route diagnostics carry spans");
    }

    #[test]
    fn remote_only_placement_is_w0501() {
        let spec = compile_str(SPEC).unwrap();
        let plan = PartitionPlan {
            coordinator: "coordinator".into(),
            nodes: vec![
                node("coordinator", &["Presence"], &["Sensor", "Panel"]),
                node("edge0", &["Lights"], &[]),
            ],
        };
        let report = validate(&spec, &plan);
        assert!(report.is_deployable());
        let diag = report.diagnostics.find("W0501").expect("W0501");
        assert!(diag.message.contains("`Lights`"), "{}", diag.message);
    }
}
