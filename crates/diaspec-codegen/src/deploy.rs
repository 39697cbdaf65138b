//! Deployment units: partitioning one design across nodes.
//!
//! The paper's large-scale story (§VI) moves an orchestration design
//! from a single process to a city-scale infrastructure without
//! touching the design itself. This module is the tooling side of that
//! move: [`plan_deployment`] splits a checked design into a *star* of
//! deployment units — one coordinator running the orchestration engine
//! plus N edge nodes hosting device slices — and emits
//!
//! - a machine-readable **node manifest** (`manifest.json`) naming what
//!   runs where and which addresses the nodes listen/connect on, and
//! - one **per-node Rust source** per unit, declaring exactly that
//!   node's slice of the design and the peers it bridges to over the
//!   socket transport (`diaspec_runtime::transport`).
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
//! Before anything is emitted the split is validated by the static
//! partition pass ([`diaspec_core::analysis::partition`]): a plan that
//! leaves a component unplaced or routes data edge-to-edge is rejected
//! here, at design time, with E05xx diagnostics.

use crate::{GeneratedFile, GeneratedFramework, Language};
use diaspec_core::analysis::partition::{self, PartitionNode, PartitionPlan};
use diaspec_core::diag::Severity;
use diaspec_core::model::CheckedSpec;
use diaspec_core::types::Type;
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

/// `(node, address)` pair in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerAddr {
    /// Peer node name.
    pub node: String,
    /// `host:port` the peer listens on.
    pub addr: String,
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
    /// Edge nodes it connects to, in node order.
    pub connects: Vec<PeerAddr>,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// A validated deployment split plus its emitted artifacts.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The manifest, also serialized into `files` as `manifest.json`.
    pub manifest: NodeManifest,
    /// The partition plan the manifest was validated against.
    pub plan: PartitionPlan,
    /// `manifest.json` plus one `node_<name>.rs` per unit.
    pub files: GeneratedFramework,
    /// Partition warnings (W0501), rendered one per line.
    pub warnings: Vec<String>,
}

/// Splits `spec` into deployment units and emits their artifacts.
///
/// # Errors
///
/// Returns a rendered message when the options are unusable (zero
/// edges, unknown or ambiguous shard enumeration, more edges than
/// variants) or when the static partition pass rejects the split
/// (E05xx diagnostics, one per line).
pub fn plan_deployment(spec: &CheckedSpec, options: &DeployOptions) -> Result<Deployment, String> {
    if options.edges == 0 {
        return Err("a deployment needs at least one edge node".to_owned());
    }
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

    let mut nodes = vec![PartitionNode {
        name: "coordinator".to_owned(),
        components: components.clone(),
        devices: central.clone(),
    }];
    let mut edges = Vec::new();
    for i in 0..options.edges {
        let name = format!("edge{i}");
        let shards: Vec<String> = variants
            .iter()
            .enumerate()
            .filter(|(v, _)| v % options.edges == i)
            .map(|(_, v)| v.clone())
            .collect();
        nodes.push(PartitionNode {
            name: name.clone(),
            components: Vec::new(),
            devices: sharded.clone(),
        });
        edges.push(EdgeManifest {
            name,
            listen: format!("{}:{}", options.host, options.port_base + i as u16),
            devices: sharded.clone(),
            shards,
            link: LinkPolicy::default(),
        });
    }
    let plan = PartitionPlan {
        coordinator: "coordinator".to_owned(),
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
    let warnings: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity != Severity::Error)
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect();

    let manifest = NodeManifest {
        design: options.design.clone(),
        shard: ShardManifest {
            enumeration: shard_enum,
            attributes: shard_attrs,
        },
        coordinator: CoordinatorManifest {
            name: "coordinator".to_owned(),
            components,
            devices: central,
            connects: edges
                .iter()
                .map(|e| PeerAddr {
                    node: e.name.clone(),
                    addr: e.listen.clone(),
                })
                .collect(),
        },
        edges,
        cut_routes: report
            .cut_routes
            .iter()
            .map(|r| ManifestRoute {
                from_node: r.from.0.clone(),
                from: r.from.1.clone(),
                to_node: r.to.0.clone(),
                to: r.to.1.clone(),
            })
            .collect(),
    };

    let mut files = vec![GeneratedFile {
        path: "manifest.json".to_owned(),
        content: serde_json::to_string_pretty(&manifest)
            .expect("manifest serialization is infallible")
            + "\n",
    }];
    files.push(coordinator_source(&manifest));
    for edge in &manifest.edges {
        files.push(edge_source(&manifest, edge));
    }

    Ok(Deployment {
        manifest,
        plan,
        files: GeneratedFramework {
            language: Language::Rust,
            files,
        },
        warnings,
    })
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

/// Shared file header for generated per-node sources.
fn node_header(manifest: &NodeManifest, node: &str, role: &str) -> String {
    format!(
        "//! Deployment unit `{node}` of design `{}` — {role}.\n\
         //!\n\
         //! Generated by `diaspec-gen deploy`; addresses and slices come\n\
         //! from the accompanying `manifest.json`. Do not edit.\n\n",
        manifest.design
    )
}

/// Emits `node_coordinator.rs`: the unit running the engine, bridging
/// every remote device family over one [`Link`] per edge node.
fn coordinator_source(manifest: &NodeManifest) -> GeneratedFile {
    let c = &manifest.coordinator;
    let mut out = node_header(manifest, &c.name, "the orchestration coordinator");
    out.push_str(
        "use diaspec_runtime::deploy::{BreakerConfig, Link, RemoteDeviceProxy, SessionConfig};\n",
    );
    out.push_str("use diaspec_runtime::{RetryConfig, TcpTransport};\n");
    out.push_str("use std::sync::Arc;\n\n");
    push_list(
        &mut out,
        "COMPONENTS",
        "Contexts and controllers this node runs.",
        c.components.iter().map(String::as_str),
    );
    push_list(
        &mut out,
        "LOCAL_DEVICES",
        "Device families hosted on this node.",
        c.devices.iter().map(String::as_str),
    );
    out.push_str("/// Edge peers this node connects to: `(node, address)`.\n");
    out.push_str("pub const PEERS: &[(&str, &str)] = &[\n");
    for peer in &c.connects {
        let _ = writeln!(out, "    ({:?}, {:?}),", peer.node, peer.addr);
    }
    out.push_str("];\n\n");
    out.push_str("/// Remote device families, bridged per hosting edge: `(family, node)`.\n");
    out.push_str("pub const REMOTE_DEVICES: &[(&str, &str)] = &[\n");
    for edge in &manifest.edges {
        for device in &edge.devices {
            let _ = writeln!(out, "    ({device:?}, {:?}),", edge.name);
        }
    }
    out.push_str("];\n\n");
    out.push_str(
        "/// Per-link resilience policy from the manifest:\n\
         /// `(node, session, resend_queue, max_attempts, base_backoff_ms,\n\
         /// timeout_ms, breaker_failures, breaker_cooldown_ms)`.\n\
         pub const LINK_POLICIES: &[(&str, bool, usize, u32, u64, u64, u32, u64)] = &[\n",
    );
    for edge in &manifest.edges {
        let p = &edge.link;
        let _ = writeln!(
            out,
            "    ({:?}, {}, {}, {}, {}, {}, {}, {}),",
            edge.name,
            p.session,
            p.resend_queue,
            p.max_attempts,
            p.base_backoff_ms,
            p.timeout_ms,
            p.breaker_failures,
            p.breaker_cooldown_ms,
        );
    }
    out.push_str("];\n\n");
    out.push_str(
        "/// Opens one socket link per edge peer, in `PEERS` order, applying\n\
         /// each peer's `LINK_POLICIES` entry (at-least-once session layer\n\
         /// when `session` is set, best-effort otherwise).\n\
         pub fn links(retry: RetryConfig) -> Vec<(&'static str, Arc<Link>)> {\n\
         \x20   PEERS\n\
         \x20       .iter()\n\
         \x20       .map(|(node, addr)| {\n\
         \x20           let transport = TcpTransport::new(*node, *addr, retry);\n\
         \x20           let policy = LINK_POLICIES.iter().find(|(name, ..)| name == node);\n\
         \x20           let link = match policy {\n\
         \x20               Some(&(_, true, resend_queue, max_attempts, base_backoff_ms, timeout_ms, failures, cooldown_ms)) => {\n\
         \x20                   Link::with_session(\n\
         \x20                       transport,\n\
         \x20                       SessionConfig {\n\
         \x20                           retry: RetryConfig { max_attempts, base_backoff_ms, timeout_ms },\n\
         \x20                           resend_queue,\n\
         \x20                           breaker: BreakerConfig { failure_threshold: failures, cooldown_ms },\n\
         \x20                       },\n\
         \x20                   )\n\
         \x20               }\n\
         \x20               _ => Link::new(transport),\n\
         \x20           };\n\
         \x20           (*node, link)\n\
         \x20       })\n\
         \x20       .collect()\n\
         }\n\n\
         /// Proxies a remote family hosted on `node` through its link.\n\
         pub fn proxy(family: &str, node: &str, links: &[(&'static str, Arc<Link>)]) -> Option<RemoteDeviceProxy> {\n\
         \x20   links\n\
         \x20       .iter()\n\
         \x20       .find(|(name, _)| *name == node)\n\
         \x20       .map(|(_, link)| RemoteDeviceProxy::new(family, Arc::clone(link)))\n\
         }\n",
    );
    GeneratedFile {
        path: format!("node_{}.rs", c.name),
        content: out,
    }
}

/// Emits `node_<edge>.rs`: a unit hosting device shards behind an
/// [`EdgeRuntime`] served on its listen address.
fn edge_source(manifest: &NodeManifest, edge: &EdgeManifest) -> GeneratedFile {
    let mut out = node_header(manifest, &edge.name, "an edge device host");
    out.push_str("use diaspec_runtime::deploy::EdgeRuntime;\n\n");
    let _ = writeln!(
        out,
        "/// The address this node listens on.\npub const LISTEN: &str = {:?};\n",
        edge.listen
    );
    push_list(
        &mut out,
        "DEVICES",
        "Device families with instances on this node.",
        edge.devices.iter().map(String::as_str),
    );
    push_list(
        &mut out,
        "SHARDS",
        "Shard-enum variants assigned to this node.",
        edge.shards.iter().map(String::as_str),
    );
    let _ = write!(
        out,
        "/// Builds this node's runtime. Register one driver per family and\n\
         /// shard (`EdgeRuntime::add_device`) before serving on `LISTEN`.\n\
         #[must_use]\n\
         pub fn runtime() -> EdgeRuntime {{\n\
         \x20   EdgeRuntime::new({:?})\n\
         }}\n",
        edge.name
    );
    GeneratedFile {
        path: format!("node_{}.rs", edge.name),
        content: out,
    }
}

/// Appends a documented `pub const NAME: &[&str]` list.
fn push_list<'a>(out: &mut String, name: &str, doc: &str, items: impl Iterator<Item = &'a str>) {
    let _ = writeln!(out, "/// {doc}");
    let _ = writeln!(out, "pub const {name}: &[&str] = &[");
    for item in items {
        let _ = writeln!(out, "    {item:?},");
    }
    out.push_str("];\n\n");
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
        let spec = parking();
        let deployment = plan_deployment(&spec, &DeployOptions::default()).unwrap();
        let json = &deployment.files.file("manifest.json").unwrap().content;
        let back: NodeManifest = serde_json::from_str(json).unwrap();
        assert_eq!(back, deployment.manifest);
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
                "devices": [],
                "connects": []
            },
            "edges": [{
                "name": "edge0",
                "listen": "127.0.0.1:7070",
                "devices": [],
                "shards": []
            }],
            "cut_routes": []
        }"#;
        let manifest: NodeManifest = serde_json::from_str(legacy).unwrap();
        assert_eq!(manifest.edges[0].link, LinkPolicy::default());
        // A manifest written while the coordinator block carried a
        // delivery-pipeline shard count still loads: the key is ignored.
        let with_shards = legacy.replace(
            r#""connects": []"#,
            r#""connects": [], "pipeline_shards": 4"#,
        );
        assert_ne!(with_shards, legacy);
        let sharded: NodeManifest = serde_json::from_str(&with_shards).unwrap();
        assert_eq!(sharded, manifest);
    }

    #[test]
    fn per_node_sources_declare_their_slice() {
        let spec = parking();
        let deployment = plan_deployment(&spec, &DeployOptions::default()).unwrap();
        let coord = &deployment
            .files
            .file("node_coordinator.rs")
            .unwrap()
            .content;
        assert!(coord.contains("pub const PEERS"));
        assert!(coord.contains("TcpTransport::new"));
        assert!(coord.contains("\"PresenceSensor\", \"edge0\""));
        // The manifest's link policy rides into the generated source.
        assert!(coord.contains("pub const LINK_POLICIES"));
        assert!(coord.contains("(\"edge0\", true, 64, 3, 100, 10000, 4, 60000),"));
        assert!(coord.contains("Link::with_session"));
        let edge = &deployment.files.file("node_edge1.rs").unwrap().content;
        assert!(edge.contains("pub const LISTEN: &str = \"127.0.0.1:7071\""));
        assert!(edge.contains("EdgeRuntime::new(\"edge1\")"));
        // Round-robin: edge1 gets the odd-indexed lots.
        assert!(edge.contains("\"B16\""));
        assert!(!edge.contains("\"A22\""));
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
