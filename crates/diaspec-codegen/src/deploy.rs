//! Deployment units: partitioning one design across nodes.
//!
//! The paper's large-scale story (§VI) moves an orchestration design
//! from a single process to a city-scale infrastructure without
//! touching the design itself. This module is the tooling side of that
//! move: [`plan_deployment`] splits a checked design into a *star* of
//! deployment units — one coordinator running the orchestration engine
//! plus N edge nodes hosting device slices — and describes it in one
//! machine-readable **node manifest** (`manifest.json`): what runs
//! where, which address each edge listens on, and each link's
//! resilience policy. The manifest *is* the deployment unit; a node is
//! a generic binary plus its slice of it.
//!
//! The split is attribute-driven, mirroring how the parking study
//! shards by parking lot: the *shard enumeration* is the enum type most
//! referenced by device attributes (or an explicit
//! [`DeployOptions::shard_enum`]), its variants are distributed
//! round-robin across the edge nodes, and every device family carrying
//! an attribute of that type follows its variants to the edges. All
//! contexts and controllers — the computations — and every non-sharded
//! device family stay on the coordinator.
//!
//! A manifest is edited by hand after it is generated, so it is checked
//! where it is loaded: [`NodeManifest::from_json`] refuses what needs no
//! design to refuse, [`NodeManifest::check_against`] holds it against
//! the design — the shard assignment, then the static partition pass
//! ([`diaspec_core::analysis::partition`], E05xx) — and
//! [`plan_deployment`] passes what it builds through the same two.

use diaspec_core::analysis::partition::{self, PartitionNode, PartitionPlan, PartitionReport};
use diaspec_core::diag::Severity;
use diaspec_core::model::CheckedSpec;
use diaspec_core::types::Type;
use serde::content::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tuning knobs for [`plan_deployment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployOptions {
    /// Design name, used in the manifest and generated file headers.
    pub design: String,
    /// Number of edge nodes to shard across (≥ 1).
    pub edges: usize,
    /// Host every node binds/connects on.
    pub host: String,
    /// First listen port; edge `i` listens on `port_base + i`.
    pub port_base: u16,
    /// Explicit shard enumeration name. When `None`, the enum type most
    /// referenced by device attributes is auto-detected.
    pub shard_enum: Option<String>,
}

impl Default for DeployOptions {
    fn default() -> Self {
        DeployOptions {
            design: "design".to_owned(),
            edges: 2,
            host: "127.0.0.1".to_owned(),
            port_base: 7070,
            shard_enum: None,
        }
    }
}

/// The coordinator's slice in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoordinatorManifest {
    /// Node name (always `coordinator`).
    pub name: String,
    /// Contexts and controllers it runs (all of them).
    pub components: Vec<String>,
    /// Device families hosted locally.
    pub devices: Vec<String>,
}

/// Resilience policy of one coordinator↔edge link in the manifest.
///
/// Mirrors the runtime's session layer
/// (`diaspec_runtime::deploy::SessionConfig`): when `session` is set,
/// the coordinator opens the link with at-least-once delivery —
/// cumulative acks, inline resends, a bounded replay queue for effects
/// parked across partitions, and a circuit breaker that fails fast on
/// a dead edge. All fields are integers so the manifest stays exactly
/// comparable (`Eq`) and byte-stable across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub struct LinkPolicy {
    /// Whether the link runs the at-least-once session layer.
    pub session: bool,
    /// Most parked effects the replay queue holds.
    pub resend_queue: usize,
    /// Inline resend attempts per request (beyond the first send).
    pub max_attempts: u32,
    /// Base wall-clock backoff between resends (doubles per attempt).
    pub base_backoff_ms: u64,
    /// Per-request wall-clock budget (also the socket read deadline).
    pub timeout_ms: u64,
    /// Consecutive request failures that trip the circuit breaker.
    pub breaker_failures: u32,
    /// Sim-ms the breaker stays open before a half-open probe.
    pub breaker_cooldown_ms: u64,
    /// The link's budget in messages per hour, which lint holds the load
    /// of the families pinned to the edge against (W0602); `None`, and
    /// absent from the JSON, when the link has none.
    pub msgs_per_hour: Option<u64>,
}

impl Serialize for LinkPolicy {
    /// The derived layout, without `msgs_per_hour` when it is `None`, so a
    /// manifest without a link budget serializes as it did before the
    /// field existed.
    fn to_content(&self) -> Value {
        let fields = [
            ("session", self.session.to_content()),
            ("resend_queue", self.resend_queue.to_content()),
            ("max_attempts", self.max_attempts.to_content()),
            ("base_backoff_ms", self.base_backoff_ms.to_content()),
            ("timeout_ms", self.timeout_ms.to_content()),
            ("breaker_failures", self.breaker_failures.to_content()),
            ("breaker_cooldown_ms", self.breaker_cooldown_ms.to_content()),
        ];
        let budget = self
            .msgs_per_hour
            .map(|m| ("msgs_per_hour", m.to_content()));
        let entries = fields.into_iter().chain(budget);
        Value::Object(entries.map(|(name, v)| (name.to_owned(), v)).collect())
    }
}

impl Default for LinkPolicy {
    fn default() -> Self {
        LinkPolicy {
            session: true,
            resend_queue: 64,
            max_attempts: 3,
            base_backoff_ms: 100,
            timeout_ms: 10_000,
            breaker_failures: 4,
            breaker_cooldown_ms: 60_000,
            msgs_per_hour: None,
        }
    }
}

/// One edge node's slice in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeManifest {
    /// Node name (`edge0`, `edge1`, ...).
    pub name: String,
    /// `host:port` this node listens on.
    pub listen: String,
    /// Device families with instances on this node.
    pub devices: Vec<String>,
    /// Shard-enum variants assigned to this node.
    pub shards: Vec<String>,
    /// Resilience policy of the coordinator↔node link (defaulted for
    /// manifests written before the session layer existed).
    #[serde(default)]
    pub link: LinkPolicy,
}

/// How the design was sharded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// The shard enumeration.
    pub enumeration: String,
    /// `Device.attribute` references that selected it.
    pub attributes: Vec<String>,
}

/// One dataflow route that crosses the coordinator cut at runtime.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestRoute {
    /// Producing node.
    pub from_node: String,
    /// Producing component or device.
    pub from: String,
    /// Consuming node.
    pub to_node: String,
    /// Consuming component or device.
    pub to: String,
    /// The device member the route uses — the source a device route
    /// reads or the action a `do ... on` route invokes; `null` between
    /// two components (and in manifests written before it was named).
    #[serde(default)]
    pub member: Option<String>,
}

/// The machine-readable deployment manifest (`manifest.json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeManifest {
    /// Design name.
    pub design: String,
    /// How the design was sharded.
    pub shard: ShardManifest,
    /// The coordinator unit.
    pub coordinator: CoordinatorManifest,
    /// The edge units, in node order.
    pub edges: Vec<EdgeManifest>,
    /// Routes that travel the transport, from the partition pass.
    pub cut_routes: Vec<ManifestRoute>,
}

impl NodeManifest {
    /// The manifest as `manifest.json` holds it — the one serializer.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization is infallible") + "\n"
    }

    /// Loads a manifest — the one way in — refusing what needs no design
    /// to refuse: no edge; an empty or repeated node name; a `listen` that
    /// is not `host:port` with a port in 1..=65535; a shard on two edges; a
    /// session link that cannot run (`SessionConfig::validate`'s two rules,
    /// under the manifest's field names); a link budget of 0 msg/h.
    ///
    /// # Errors
    ///
    /// The JSON error, or the first broken rule with its node and field.
    pub fn from_json(json: &str) -> Result<NodeManifest, String> {
        let manifest: NodeManifest = serde_json::from_str(json).map_err(|e| e.to_string())?;
        manifest.check_shape()?;
        Ok(manifest)
    }

    /// The rules of [`Self::from_json`].
    fn check_shape(&self) -> Result<(), String> {
        if self.edges.is_empty() {
            return Err("manifest: edges must hold at least one edge node".to_owned());
        }
        if self.coordinator.name.is_empty() {
            return Err("manifest coordinator: name must not be empty".to_owned());
        }
        let mut names = vec![self.coordinator.name.as_str()];
        let mut hosts: BTreeMap<&str, &str> = BTreeMap::new();
        for (i, edge) in self.edges.iter().enumerate() {
            let refuse = |what: String| Err(format!("manifest edge {}: {what}", edge.name));
            if edge.name.is_empty() {
                return Err(format!("manifest edge #{i}: name must not be empty"));
            }
            if names.contains(&edge.name.as_str()) {
                return refuse("name is taken by an earlier node".to_owned());
            }
            names.push(&edge.name);
            let port = edge.listen.rsplit_once(':').filter(|(h, _)| !h.is_empty());
            if !matches!(port.map(|(_, p)| p.parse::<u16>()), Some(Ok(1..))) {
                return refuse(format!(
                    "listen `{}` is not host:port (1..=65535)",
                    edge.listen
                ));
            }
            for shard in &edge.shards {
                if let Some(other) = hosts.insert(shard, &edge.name) {
                    return refuse(format!("shards holds `{shard}`, already on {other}"));
                }
            }
            if edge.link.session && edge.link.resend_queue == 0 {
                return refuse("link.resend_queue must be at least 1".to_owned());
            }
            if edge.link.session && edge.link.breaker_failures == 0 {
                return refuse("link.breaker_failures must be at least 1".to_owned());
            }
            if edge.link.msgs_per_hour == Some(0) {
                return refuse("link.msgs_per_hour must be at least 1".to_owned());
            }
        }
        Ok(())
    }

    /// Holds the manifest against the design it claims to deploy: the
    /// shard enumeration exists, every shard is one of its variants and
    /// every variant is on exactly one edge, and the static partition
    /// pass accepts the plan the manifest describes (which is also where
    /// an unknown family or component is refused, as E0502).
    ///
    /// # Errors
    ///
    /// The first broken rule, or the E05xx diagnostics, one per line.
    pub fn check_against(&self, spec: &CheckedSpec) -> Result<PartitionReport, String> {
        let shard_enum = &self.shard.enumeration;
        let variants = &spec
            .enumeration(shard_enum)
            .ok_or_else(|| format!("manifest: shard.enumeration `{shard_enum}` is not declared"))?
            .variants;
        for edge in &self.edges {
            if let Some(stray) = edge.shards.iter().find(|s| !variants.contains(s)) {
                return Err(format!(
                    "manifest edge {}: shards holds `{stray}`, not a variant of `{shard_enum}`",
                    edge.name
                ));
            }
        }
        for variant in variants {
            let hosts = self.edges.iter().filter(|e| e.shards.contains(variant));
            if hosts.count() != 1 {
                return Err(format!(
                    "manifest: `{variant}` of `{shard_enum}` must be in the shards of exactly one edge"
                ));
            }
        }
        let mut nodes = vec![PartitionNode {
            name: self.coordinator.name.clone(),
            components: self.coordinator.components.clone(),
            devices: self.coordinator.devices.clone(),
        }];
        nodes.extend(self.edges.iter().map(|edge| PartitionNode {
            name: edge.name.clone(),
            components: Vec::new(),
            devices: edge.devices.clone(),
        }));
        let plan = PartitionPlan {
            coordinator: self.coordinator.name.clone(),
            nodes,
        };
        let report = partition::validate(spec, &plan);
        if !report.is_deployable() {
            let mut message = String::from("the deployment split is not a valid partition:\n");
            for diag in report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
            {
                let _ = writeln!(message, "  {}: {}", diag.code, diag.message);
            }
            return Err(message.trim_end().to_owned());
        }
        Ok(report)
    }
}

/// A checked deployment split.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The manifest — the deployment unit (`manifest.json`).
    pub manifest: NodeManifest,
    /// Partition warnings (W0501), rendered one per line.
    pub warnings: Vec<String>,
}

/// Splits `spec` into deployment units and describes them in a manifest.
///
/// # Errors
///
/// Returns a rendered message when the options are unusable (zero
/// edges, unknown or ambiguous shard enumeration, more edges than
/// variants, a listen port outside 1..=65535) or when the manifest's
/// own gate ([`NodeManifest::check_against`]) rejects the split.
pub fn plan_deployment(spec: &CheckedSpec, options: &DeployOptions) -> Result<Deployment, String> {
    let (shard_enum, shard_attrs) = shard_enumeration(spec, options)?;
    let variants = &spec
        .enumeration(&shard_enum)
        .expect("shard enumeration was resolved against the spec")
        .variants;
    if options.edges > variants.len() {
        return Err(format!(
            "cannot shard {} variant(s) of `{shard_enum}` across {} edge nodes",
            variants.len(),
            options.edges
        ));
    }

    // Device families carrying a shard-enum attribute follow their
    // instances to the edges; everything else stays central.
    let sharded: Vec<String> = spec
        .devices()
        .filter(|d| {
            d.attributes
                .iter()
                .any(|a| a.ty == Type::Enum(shard_enum.clone()))
        })
        .map(|d| d.name.clone())
        .collect();
    let central: Vec<String> = spec
        .devices()
        .filter(|d| !sharded.contains(&d.name))
        .map(|d| d.name.clone())
        .collect();
    let components: Vec<String> = spec
        .contexts()
        .map(|c| c.name.clone())
        .chain(spec.controllers().map(|c| c.name.clone()))
        .collect();

    let mut edges = Vec::new();
    for i in 0..options.edges {
        let shards: Vec<String> = variants
            .iter()
            .enumerate()
            .filter(|(v, _)| v % options.edges == i)
            .map(|(_, v)| v.clone())
            .collect();
        let needed = usize::from(options.port_base) + i;
        let port = u16::try_from(needed)
            .ok()
            .filter(|port| *port > 0)
            .ok_or_else(|| format!("edge{i} would need port {needed}, outside 1..=65535"))?;
        edges.push(EdgeManifest {
            name: format!("edge{i}"),
            listen: format!("{}:{port}", options.host),
            devices: sharded.clone(),
            shards,
            link: LinkPolicy::default(),
        });
    }
    let mut manifest = NodeManifest {
        design: options.design.clone(),
        shard: ShardManifest {
            enumeration: shard_enum,
            attributes: shard_attrs,
        },
        coordinator: CoordinatorManifest {
            name: "coordinator".to_owned(),
            components,
            devices: central,
        },
        edges,
        cut_routes: Vec::new(),
    };

    // The gate a hand-edited manifest meets when it is loaded.
    manifest.check_shape()?;
    let report = manifest.check_against(spec)?;
    manifest.cut_routes = report
        .cut_routes
        .iter()
        .map(|r| ManifestRoute {
            from_node: r.from.0.clone(),
            from: r.from.1.clone(),
            to_node: r.to.0.clone(),
            to: r.to.1.clone(),
            member: r.member.clone(),
        })
        .collect();
    let warnings = report
        .diagnostics
        .iter()
        .filter(|d| d.severity != Severity::Error)
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect();
    Ok(Deployment { manifest, warnings })
}

/// Resolves the shard enumeration: the explicit option, or the enum
/// type most referenced by device attributes. Returns the enum name
/// plus the `Device.attribute` references that selected it.
fn shard_enumeration(
    spec: &CheckedSpec,
    options: &DeployOptions,
) -> Result<(String, Vec<String>), String> {
    let mut refs: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for device in spec.devices() {
        for attr in &device.attributes {
            if let Type::Enum(name) = &attr.ty {
                // Inherited attributes repeat on every descendant; count
                // only the declaring family so a deep hierarchy does not
                // outvote a wide one.
                if attr.declared_in == device.name {
                    refs.entry(name)
                        .or_default()
                        .push(format!("{}.{}", device.name, attr.name));
                }
            }
        }
    }
    if let Some(name) = &options.shard_enum {
        if spec.enumeration(name).is_none() {
            return Err(format!("unknown shard enumeration `{name}`"));
        }
        let attrs = refs.get(name.as_str()).cloned().unwrap_or_default();
        if attrs.is_empty() {
            return Err(format!(
                "no device attribute has type `{name}`; nothing to shard by"
            ));
        }
        return Ok((name.clone(), attrs));
    }
    let best = refs.values().map(|a| a.len()).max().ok_or(
        "no device attribute has an enumeration type; pass --shard-enum or add a discovery \
         attribute to shard by",
    )?;
    let winners: Vec<&&str> = refs
        .iter()
        .filter(|(_, a)| a.len() == best)
        .map(|(n, _)| n)
        .collect();
    if winners.len() > 1 {
        return Err(format!(
            "ambiguous shard enumeration (equally referenced: {}); pass --shard-enum",
            winners
                .iter()
                .map(|n| format!("`{n}`"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let name = (*winners[0]).to_owned();
    let attrs = refs[name.as_str()].clone();
    Ok((name, attrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_core::compile_str;

    fn parking() -> CheckedSpec {
        let source = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/parking.spec"
        ))
        .unwrap();
        compile_str(&source).unwrap()
    }

    #[test]
    fn parking_splits_into_coordinator_and_sharded_edges() {
        let spec = parking();
        let options = DeployOptions {
            design: "parking".to_owned(),
            ..DeployOptions::default()
        };
        let deployment = plan_deployment(&spec, &options).unwrap();
        let m = &deployment.manifest;
        assert_eq!(m.shard.enumeration, "ParkingLotEnum");
        assert!(m
            .shard
            .attributes
            .contains(&"PresenceSensor.parkingLot".to_owned()));
        // Lot-scoped families shard to the edges; city-scoped ones stay.
        for edge in &m.edges {
            assert!(edge.devices.contains(&"PresenceSensor".to_owned()));
            assert!(edge.devices.contains(&"ParkingEntrancePanel".to_owned()));
        }
        assert!(m
            .coordinator
            .devices
            .contains(&"CityEntrancePanel".to_owned()));
        assert!(m.coordinator.devices.contains(&"Messenger".to_owned()));
        // All 8 lots covered exactly once across 2 edges.
        let mut lots: Vec<&String> = m.edges.iter().flat_map(|e| &e.shards).collect();
        lots.sort();
        assert_eq!(lots.len(), 8);
        lots.dedup();
        assert_eq!(lots.len(), 8);
        // Components all run centrally, and data really crosses the cut.
        assert!(m
            .coordinator
            .components
            .contains(&"ParkingAvailability".to_owned()));
        assert!(!m.cut_routes.is_empty());
        assert!(m
            .cut_routes
            .iter()
            .all(|r| r.from_node == "coordinator" || r.to_node == "coordinator"));
        assert!(deployment.warnings.is_empty());
    }

    #[test]
    fn manifest_round_trips_through_json() {
        // Whatever `plan_deployment` writes passes the gate a loaded
        // manifest meets, at every edge count parking can be split into.
        let spec = parking();
        for edges in 1..=8 {
            let options = DeployOptions {
                edges,
                ..DeployOptions::default()
            };
            let manifest = plan_deployment(&spec, &options).unwrap().manifest;
            let back = NodeManifest::from_json(&manifest.to_json()).unwrap();
            assert_eq!(back, manifest);
            back.check_against(&spec).unwrap();
            // A link without a budget writes no `msgs_per_hour`; one with
            // a budget keeps it.
            assert!(!manifest.to_json().contains("msgs_per_hour"));
            let mut budgeted = manifest.clone();
            budgeted.edges[0].link.msgs_per_hour = Some(120);
            assert!(budgeted.to_json().contains(r#""msgs_per_hour": 120"#));
            assert_eq!(NodeManifest::from_json(&budgeted.to_json()), Ok(budgeted));
        }
    }

    #[test]
    fn pre_session_manifests_default_their_link_policy() {
        // A manifest written before the session layer existed has no
        // `link` field; deserialization must fill in the default.
        let legacy = r#"{
            "design": "parking",
            "shard": {"enumeration": "ParkingLotEnum", "attributes": []},
            "coordinator": {
                "name": "coordinator",
                "components": [],
                "devices": []
            },
            "edges": [{
                "name": "edge0",
                "listen": "127.0.0.1:7070",
                "devices": [],
                "shards": []
            }],
            "cut_routes": []
        }"#;
        let manifest = NodeManifest::from_json(legacy).unwrap();
        assert_eq!(manifest.edges[0].link, LinkPolicy::default());
        // Manifests written while the coordinator block carried a peer
        // list or a delivery-pipeline shard count still load: both keys
        // are ignored.
        for retired in [
            r#""connects": [{"node": "edge0", "addr": "127.0.0.1:7070"}]"#,
            r#""pipeline_shards": 4"#,
        ] {
            let older = legacy.replace(
                r#""devices": []
            }"#,
                &format!(r#""devices": [], {retired} }}"#),
            );
            assert_ne!(older, legacy);
            assert_eq!(NodeManifest::from_json(&older).unwrap(), manifest);
        }
    }

    #[test]
    fn hostile_manifests_are_refused_by_name() {
        type Row = (fn(&mut NodeManifest), &'static [&'static str]);
        // One hand edit of the generated parking manifest per row, and
        // what the refusal must name (nothing: the manifest must load).
        let rows: &[Row] = &[
            (
                |m| m.edges[0].shards[0] = "Z99".to_owned(),
                &["edge edge0", "shards", "`Z99`", "ParkingLotEnum"],
            ),
            (
                |m| m.edges[1].name = "edge0".to_owned(),
                &["edge edge0", "name"],
            ),
            (|m| m.edges[1].name.clear(), &["edge #1", "name"]),
            (|m| m.coordinator.name.clear(), &["coordinator", "name"]),
            (|m| m.edges.clear(), &["edges", "at least one"]),
            (
                |m| m.edges[1].shards.push("A22".to_owned()),
                &["edge edge1", "shards", "`A22`", "edge0"],
            ),
            (
                |m| drop(m.edges[1].shards.pop()),
                &["shards", "`J4`", "exactly one"],
            ),
            (
                |m| m.edges[0].listen = "127.0.0.1".to_owned(),
                &["edge edge0", "listen"],
            ),
            (
                |m| m.edges[0].listen = "127.0.0.1:0".to_owned(),
                &["edge edge0", "listen", "127.0.0.1:0"],
            ),
            (
                |m| m.edges[0].listen = "127.0.0.1:65536".to_owned(),
                &["edge edge0", "listen", "1..=65535"],
            ),
            (
                |m| m.shard.enumeration = "NoSuchEnum".to_owned(),
                &["shard.enumeration", "`NoSuchEnum`"],
            ),
            (
                |m| m.edges[0].devices.push("Toaster".to_owned()),
                &["E0502", "`edge0`", "unknown device `Toaster`"],
            ),
            (
                |m| m.coordinator.components.push("Nope".to_owned()),
                &["E0502", "`coordinator`", "unknown component `Nope`"],
            ),
            (
                |m| m.edges[0].link.resend_queue = 0,
                &["manifest edge edge0: link.resend_queue must be at least 1"],
            ),
            (
                |m| m.edges[1].link.breaker_failures = 0,
                &["manifest edge edge1: link.breaker_failures must be at least 1"],
            ),
            (
                |m| m.edges[1].link.msgs_per_hour = Some(0),
                &["manifest edge edge1: link.msgs_per_hour must be at least 1"],
            ),
            (|m| m.edges[1].link.msgs_per_hour = Some(1), &[]),
            (
                |m| {
                    m.edges[0].link = LinkPolicy {
                        session: false,
                        resend_queue: 0,
                        breaker_failures: 0,
                        ..LinkPolicy::default()
                    };
                },
                &[],
            ),
        ];
        let spec = parking();
        let generated = plan_deployment(&spec, &DeployOptions::default())
            .unwrap()
            .manifest;
        for (i, (edit, names)) in rows.iter().enumerate() {
            let mut manifest = generated.clone();
            edit(&mut manifest);
            let loaded = NodeManifest::from_json(&manifest.to_json())
                .and_then(|m| m.check_against(&spec).map(|_| ()));
            match (loaded, names.is_empty()) {
                (Ok(()), true) => {}
                (Err(message), false) => {
                    for name in *names {
                        assert!(
                            message.contains(name),
                            "row {i}: `{name}` not in: {message}"
                        );
                    }
                }
                (other, _) => panic!("row {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_options_are_rejected_with_messages() {
        let spec = parking();
        let zero = DeployOptions {
            edges: 0,
            ..DeployOptions::default()
        };
        assert!(plan_deployment(&spec, &zero).unwrap_err().contains("edge"));
        let wide = DeployOptions {
            edges: 9,
            ..DeployOptions::default()
        };
        assert!(plan_deployment(&spec, &wide)
            .unwrap_err()
            .contains("8 variant(s)"));
        let unknown = DeployOptions {
            shard_enum: Some("NoSuchEnum".to_owned()),
            ..DeployOptions::default()
        };
        assert!(plan_deployment(&spec, &unknown)
            .unwrap_err()
            .contains("unknown shard enumeration"));
        // Edge 1 of 2 would listen on 65536: named, not wrapped to port 0
        // (a release build's `+`) nor an overflow panic (a debug build's).
        let high = DeployOptions {
            port_base: 65535,
            ..DeployOptions::default()
        };
        let error = plan_deployment(&spec, &high).unwrap_err();
        assert!(
            error.contains("edge1") && error.contains("65536"),
            "{error}"
        );
    }

    #[test]
    fn designs_without_enum_attributes_cannot_be_sharded() {
        let spec = compile_str(
            r#"
            device Sensor { source v as Integer; }
            context C as Integer { when provided v from Sensor always publish; }
            "#,
        )
        .unwrap();
        let err = plan_deployment(&spec, &DeployOptions::default()).unwrap_err();
        assert!(err.contains("no device attribute has an enumeration type"));
    }
}
