//! Pass 6: cross-design deployment analysis (E0601 / W0601 / W0602 /
//! E0602).
//!
//! Every pass so far reasons about one design at a time, but the paper's
//! small-to-large-scale continuum means many orchestration applications
//! co-deployed over *one* device fleet. This module analyzes a whole
//! deployment: N checked designs, optionally pinned to edge nodes by
//! their deployment manifests, sharing the physical devices their
//! taxonomies overlap on.
//!
//! - **E0601 / W0601** — cross-application actuation conflicts: the one
//!   conflict pass ([`super::conflicts`]) run over all N designs, of
//!   which this report keeps the pairs across designs (each design's own
//!   pairs are its single-design analysis). E0601 when the pair is
//!   guaranteed under the one rule stated there, W0601 otherwise.
//! - **W0602** — capacity overload: the one budget pass
//!   ([`super::rates`]) run over all N designs under a shared fleet-size
//!   hypothesis, of which this report keeps what no design reaches alone
//!   (each design's own overloads are its W0407): a device family's
//!   `@qos(capacityPerHour)` budget, or a cut link's `msgs_per_hour`.
//! - **E0602** — unsafe deployment cut: two manifests pin a shared
//!   device family (or one of its shard variants) to *different* edge
//!   nodes — one physical device cannot be attached to two processes.
//!
//! Device universes are unified structurally: the `extends` edges of all
//! designs are merged into one taxonomy ([`MergedTaxonomy`]), so a
//! `Vent` in one design and an `EmergencyVent extends Vent` in another
//! resolve to overlapping families exactly as they would inside a single
//! design (see [`super::graph::families_overlap`]).

use crate::diag::{Diagnostic, Diagnostics, Severity};
use crate::model::CheckedSpec;
use crate::span::{Loc, Span};
use std::collections::{BTreeMap, BTreeSet};

use super::conflicts::{self, ActuationConflict};
use super::graph::DesignGraph;
use super::rates::{self, EdgeCapacity};
use super::AnalysisOptions;

/// One design participating in a deployment, by display name (usually
/// the spec file stem).
#[derive(Debug, Clone, Copy)]
pub struct DesignRef<'a> {
    /// Display name used in cross-design messages.
    pub name: &'a str,
    /// The checked design.
    pub spec: &'a CheckedSpec,
}

/// Where one deployment manifest pins a device family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinnedHost {
    /// Node name inside the manifest (e.g. `edge0`).
    pub node: String,
    /// Listen address of the node, `None` for the coordinator.
    pub addr: Option<String>,
    /// Shard variants of the family hosted there (empty when the whole
    /// family is pinned without sharding).
    pub variants: Vec<String>,
    /// The msg/h budget of the node's cut link, when its manifest gives
    /// one (`None` for the coordinator).
    pub link_msgs_per_hour: Option<u64>,
}

/// The device pins of one design's deployment manifest, reduced to what
/// the cut-safety pass and the link budgets need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployPins {
    /// Index into the `designs` slice this manifest belongs to.
    pub design: usize,
    /// Where the manifest came from, for messages (usually a path).
    pub origin: String,
    /// Family name to the hosts it is pinned on.
    pub families: BTreeMap<String, Vec<PinnedHost>>,
}

/// The union of every design's `extends` edges: one tree (or forest) in
/// which cross-design subtype questions are answered structurally.
#[derive(Debug, Clone, Default)]
pub struct MergedTaxonomy {
    parents: BTreeMap<String, BTreeSet<String>>,
    known: BTreeSet<String>,
}

impl MergedTaxonomy {
    /// Merges the device taxonomies of all designs.
    #[must_use]
    pub fn build(designs: &[DesignRef<'_>]) -> Self {
        let mut tax = MergedTaxonomy::default();
        for design in designs {
            for device in design.spec.devices() {
                tax.known.insert(device.name.clone());
                if let Some(parent) = &device.parent {
                    tax.parents
                        .entry(device.name.clone())
                        .or_default()
                        .insert(parent.clone());
                }
            }
        }
        tax
    }

    /// Whether `descendant` is (transitively) a subtype of `ancestor` in
    /// the merged taxonomy. Every device is a subtype of itself.
    #[must_use]
    pub fn is_subtype(&self, descendant: &str, ancestor: &str) -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut queue: Vec<&str> = vec![descendant];
        while let Some(at) = queue.pop() {
            if at == ancestor {
                return true;
            }
            if !seen.insert(at) {
                continue;
            }
            if let Some(parents) = self.parents.get(at) {
                queue.extend(parents.iter().map(String::as_str));
            }
        }
        false
    }

    /// Whether the two families overlap: in a tree-shaped taxonomy they
    /// intersect exactly when one root subtypes the other.
    #[must_use]
    pub fn overlap(&self, first: &str, second: &str) -> bool {
        self.is_subtype(first, second) || self.is_subtype(second, first)
    }

    /// Known devices belonging to both families, in name order.
    #[must_use]
    pub fn shared_devices(&self, first: &str, second: &str) -> Vec<String> {
        self.known
            .iter()
            .filter(|d| self.is_subtype(d, first) && self.is_subtype(d, second))
            .cloned()
            .collect()
    }
}

/// A shared device family pinned to incompatible places by two designs'
/// manifests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutViolation {
    /// Index of the first design.
    pub first_design: usize,
    /// Family name as pinned by the first manifest.
    pub first_family: String,
    /// Node name in the first manifest.
    pub first_node: String,
    /// Listen address in the first manifest (`None` = coordinator).
    pub first_addr: Option<String>,
    /// Index of the second design.
    pub second_design: usize,
    /// Family name as pinned by the second manifest.
    pub second_family: String,
    /// Node name in the second manifest.
    pub second_node: String,
    /// Listen address in the second manifest (`None` = coordinator).
    pub second_addr: Option<String>,
    /// The shard variant both manifests pin, when the disagreement is
    /// variant-level.
    pub variant: Option<String>,
}

/// The combined result of the cross-design passes.
#[derive(Debug, Clone, Default)]
pub struct DeploymentReport {
    /// All findings in pass order (conflicts, cut safety, budgets);
    /// each location's `file` is the index of the design it points into.
    pub diagnostics: Diagnostics,
    /// Cross-design actuation conflicts (E0601 / W0601).
    pub conflicts: Vec<ActuationConflict>,
    /// Manifest cut violations (E0602).
    pub cut_violations: Vec<CutViolation>,
}

impl DeploymentReport {
    /// Whether no cross-design actuation conflict was found — the
    /// property multi-application codegen banners advertise.
    #[must_use]
    pub fn conflict_free(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// Runs every cross-design pass over `designs` (order defines the
/// design indices used in findings and pins).
#[must_use]
pub fn analyze_deployment(
    designs: &[DesignRef<'_>],
    pins: &[DeployPins],
    options: &AnalysisOptions,
) -> DeploymentReport {
    let taxonomy = MergedTaxonomy::build(designs);
    // Each design's graph and load model, once. W0404 is a per-design
    // finding the single-design pass already reports.
    let graphs: Vec<DesignGraph> = designs.iter().map(|d| DesignGraph::build(d.spec)).collect();
    let loads: Vec<Vec<EdgeCapacity>> = designs
        .iter()
        .zip(&graphs)
        .map(|(d, graph)| {
            rates::detect(d.spec, graph, options.fleet_size, &mut Diagnostics::new()).edges
        })
        .collect();
    let mut report = DeploymentReport::default();
    for conflict in conflicts::detect(designs, &graphs, &taxonomy) {
        if conflict.first_design != conflict.second_design {
            report
                .diagnostics
                .push(conflicts::render(designs, &conflict));
            report.conflicts.push(conflict);
        }
    }
    detect_cut_violations(designs, pins, &taxonomy, &mut report);
    let fleet = |_: &str| options.fleet_size;
    let budgets = rates::judge(designs, &graphs, &loads, &fleet, pins, None);
    report.diagnostics.extend(budgets.together);
    report
}

fn detect_cut_violations(
    designs: &[DesignRef<'_>],
    pins: &[DeployPins],
    taxonomy: &MergedTaxonomy,
    report: &mut DeploymentReport,
) {
    for (pi, first) in pins.iter().enumerate() {
        for second in &pins[pi + 1..] {
            if first.design == second.design {
                continue;
            }
            for (fa, hosts_a) in &first.families {
                for (fb, hosts_b) in &second.families {
                    if !taxonomy.overlap(fa, fb) {
                        continue;
                    }
                    for violation in
                        compare_pins(first.design, fa, hosts_a, second.design, fb, hosts_b)
                    {
                        report
                            .diagnostics
                            .push(render_cut(designs, pins, pi, &violation));
                        report.cut_violations.push(violation);
                    }
                }
            }
        }
    }
}

/// Compares where two manifests put one (overlapping) family pair and
/// yields every variant- or family-level disagreement.
fn compare_pins(
    first_design: usize,
    first_family: &str,
    hosts_a: &[PinnedHost],
    second_design: usize,
    second_family: &str,
    hosts_b: &[PinnedHost],
) -> Vec<CutViolation> {
    let variant_map = |hosts: &[PinnedHost]| -> BTreeMap<String, (String, Option<String>)> {
        hosts
            .iter()
            .flat_map(|h| {
                h.variants
                    .iter()
                    .map(move |v| (v.clone(), (h.node.clone(), h.addr.clone())))
            })
            .collect()
    };
    let mut violations = Vec::new();
    let map_a = variant_map(hosts_a);
    let map_b = variant_map(hosts_b);
    let make = |variant: Option<String>,
                (node_a, addr_a): &(String, Option<String>),
                (node_b, addr_b): &(String, Option<String>)| CutViolation {
        first_design,
        first_family: first_family.to_owned(),
        first_node: node_a.clone(),
        first_addr: addr_a.clone(),
        second_design,
        second_family: second_family.to_owned(),
        second_node: node_b.clone(),
        second_addr: addr_b.clone(),
        variant,
    };

    // Variant-level: the same physical shard pinned in both manifests
    // must resolve to the same attachment point.
    for (variant, placed_a) in &map_a {
        if let Some(placed_b) = map_b.get(variant) {
            if placed_a.1 != placed_b.1 {
                violations.push(make(Some(variant.clone()), placed_a, placed_b));
            }
        }
    }
    if !violations.is_empty() || (!map_a.is_empty() && !map_b.is_empty()) {
        return violations;
    }

    // Family-level (no shard variants on at least one side): the edge
    // attachment points of the whole family must agree.
    fn edge_hosts(hosts: &[PinnedHost]) -> Vec<&PinnedHost> {
        hosts.iter().filter(|h| h.addr.is_some()).collect()
    }
    let (edges_a, edges_b) = (edge_hosts(hosts_a), edge_hosts(hosts_b));
    let addrs = |edges: &[&PinnedHost]| -> BTreeSet<String> {
        edges.iter().filter_map(|h| h.addr.clone()).collect()
    };
    match (edges_a.first(), edges_b.first()) {
        (Some(ea), Some(eb)) => {
            if addrs(&edges_a).is_disjoint(&addrs(&edges_b)) {
                violations.push(make(
                    None,
                    &(ea.node.clone(), ea.addr.clone()),
                    &(eb.node.clone(), eb.addr.clone()),
                ));
            }
        }
        // Edge-pinned by one design, coordinator-attached in the other:
        // the device cannot be local to both processes.
        (Some(ea), None) => {
            if let Some(hb) = hosts_b.first() {
                violations.push(make(
                    None,
                    &(ea.node.clone(), ea.addr.clone()),
                    &(hb.node.clone(), None),
                ));
            }
        }
        (None, Some(eb)) => {
            if let Some(ha) = hosts_a.first() {
                violations.push(make(
                    None,
                    &(ha.node.clone(), None),
                    &(eb.node.clone(), eb.addr.clone()),
                ));
            }
        }
        (None, None) => {}
    }
    violations
}

fn render_cut(
    designs: &[DesignRef<'_>],
    pins: &[DeployPins],
    first_pin: usize,
    violation: &CutViolation,
) -> Diagnostic {
    let (a, b) = (
        designs[violation.first_design].name,
        designs[violation.second_design].name,
    );
    let place = |node: &str, addr: &Option<String>| match addr {
        Some(addr) => format!("edge node `{node}` ({addr})"),
        None => format!("coordinator node `{node}`"),
    };
    let what = match &violation.variant {
        Some(v) => format!(
            "shard variant `{v}` of shared device family `{}`",
            violation.first_family
        ),
        None => format!("shared device family `{}`", violation.first_family),
    };
    let message = format!(
        "designs `{a}` and `{b}` pin {what} to different attachment points: {} vs {} — one physical device cannot be hosted by two deployment processes",
        place(&violation.first_node, &violation.first_addr),
        place(&violation.second_node, &violation.second_addr),
    );
    let manifests = format!(
        "manifests: {} vs {}",
        pins[first_pin].origin,
        pins.iter()
            .find(|p| p.design == violation.second_design)
            .map_or("?", |p| p.origin.as_str()),
    );
    Diagnostic {
        severity: Severity::Error,
        code: "E0602",
        message,
        at: declaration(designs, violation.first_design, &violation.first_family),
        notes: vec![
            (
                format!("pinned by design `{b}` for this declaration"),
                Some(declaration(
                    designs,
                    violation.second_design,
                    &violation.second_family,
                )),
            ),
            (manifests, None),
        ],
    }
}

/// The declaration of device `family` in design `design`, or a dummy
/// span there when the design does not declare it.
pub(super) fn declaration(designs: &[DesignRef<'_>], design: usize, family: &str) -> Loc {
    let span = designs[design]
        .spec
        .device(family)
        .map_or(Span::DUMMY, |d| d.span);
    Loc { file: design, span }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::conflicts::{Coupling, SharedPublication};
    use crate::compile_str;

    fn deploy(sources: &[(&str, &str)], pins: &[DeployPins]) -> DeploymentReport {
        deploy_with(sources, pins, &AnalysisOptions::default())
    }

    fn deploy_with(
        sources: &[(&str, &str)],
        pins: &[DeployPins],
        options: &AnalysisOptions,
    ) -> DeploymentReport {
        let specs: Vec<(&str, CheckedSpec)> = sources
            .iter()
            .map(|(name, src)| (*name, compile_str(src).unwrap()))
            .collect();
        let designs: Vec<DesignRef<'_>> = specs
            .iter()
            .map(|(name, spec)| DesignRef { name, spec })
            .collect();
        analyze_deployment(&designs, pins, options)
    }

    const SHARED_GUARANTEED_A: &str = r#"
        device Sensor { source motion as Boolean; }
        device Lamp { action lit; }
        context Presence as Boolean { when provided motion from Sensor always publish; }
        controller Comfort { when provided Presence do lit on Lamp; }
    "#;

    const SHARED_GUARANTEED_B: &str = r#"
        device Sensor { source motion as Boolean; }
        device Lamp { action lit; }
        context Intrusion as Boolean { when provided motion from Sensor always publish; }
        controller Patrol { when provided Intrusion do lit on Lamp; }
    "#;

    #[test]
    fn shared_publication_with_always_chains_is_guaranteed() {
        let report = deploy(
            &[("a", SHARED_GUARANTEED_A), ("b", SHARED_GUARANTEED_B)],
            &[],
        );
        assert_eq!(report.conflicts.len(), 1);
        let conflict = &report.conflicts[0];
        assert!(conflict.guaranteed());
        assert_eq!(conflict.code(), "E0601");
        assert_eq!(
            conflict.coupling,
            Coupling::GuaranteedRoot(SharedPublication {
                device: "Sensor".into(),
                source: "motion".into(),
            })
        );
        assert_eq!(conflict.shared_devices, vec!["Lamp".to_owned()]);
        let finding = report.diagnostics.iter().next().unwrap();
        assert_eq!(finding.code, "E0601");
        assert_eq!(finding.severity, Severity::Error);
        assert!(
            finding.message.contains("`Sensor.motion`"),
            "{}",
            finding.message
        );
        // Both provenance chains ride along as notes, and the partner
        // `do` clause is a related location into the second design.
        assert!(finding
            .notes
            .iter()
            .any(|(n, _)| n.contains("first actuation chain (a)")));
        assert!(finding
            .notes
            .iter()
            .any(|(n, _)| n.contains("second actuation chain (b)")));
        let related: Vec<Loc> = finding.notes.iter().filter_map(|(_, at)| *at).collect();
        assert_eq!(related.len(), 1);
        assert_eq!(related[0].file, 1);
        assert!(report.diagnostics.has_errors());
    }

    #[test]
    fn maybe_publish_downgrades_to_possible_conflict() {
        let b = SHARED_GUARANTEED_B.replace("always publish", "maybe publish");
        let report = deploy(&[("a", SHARED_GUARANTEED_A), ("b", &b)], &[]);
        assert_eq!(report.conflicts.len(), 1);
        let conflict = &report.conflicts[0];
        assert!(!conflict.guaranteed());
        assert_eq!(conflict.code(), "W0601");
        assert!(matches!(conflict.coupling, Coupling::PossibleRoot(_)));
        assert!(report
            .diagnostics
            .iter()
            .next()
            .unwrap()
            .message
            .contains("maybe publish"));
    }

    #[test]
    fn sibling_subscriptions_across_designs_share_no_root() {
        // Both sources resolve to `Sensor.v`, but no entity is both a
        // `Hall` and a `Kitchen`.
        let taxonomy = "
            device Sensor { source motion as Boolean; }
            device Hall extends Sensor { attribute hall as String; }
            device Kitchen extends Sensor { attribute kitchen as String; }
        ";
        let a = format!(
            "{taxonomy}{}",
            SHARED_GUARANTEED_A
                .replace("device Sensor { source motion as Boolean; }", "")
                .replace("from Sensor", "from Hall")
        );
        let b = format!(
            "{taxonomy}{}",
            SHARED_GUARANTEED_B
                .replace("device Sensor { source motion as Boolean; }", "")
                .replace("from Sensor", "from Kitchen")
        );
        let report = deploy(&[("a", &a), ("b", &b)], &[]);
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(report.conflicts[0].coupling, Coupling::Independent);
        assert_eq!(report.conflicts[0].code(), "W0601");
    }

    #[test]
    fn periodic_batching_downgrades_to_possible_conflict() {
        let b = SHARED_GUARANTEED_B.replace(
            "when provided motion from Sensor",
            "when periodic motion from Sensor <1 min>",
        );
        let report = deploy(&[("a", SHARED_GUARANTEED_A), ("b", &b)], &[]);
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(report.conflicts[0].code(), "W0601");
    }

    #[test]
    fn independent_roots_warn_without_witness() {
        let b = r#"
            device Door { source open as Boolean; }
            device Lamp { action lit; }
            context Watch as Boolean { when provided open from Door always publish; }
            controller Night { when provided Watch do lit on Lamp; }
        "#;
        let report = deploy(&[("a", SHARED_GUARANTEED_A), ("b", b)], &[]);
        assert_eq!(report.conflicts.len(), 1);
        let conflict = &report.conflicts[0];
        assert_eq!(conflict.code(), "W0601");
        assert_eq!(conflict.coupling, Coupling::Independent);
        assert!(report
            .diagnostics
            .iter()
            .next()
            .unwrap()
            .message
            .contains("independent trigger chains"));
    }

    #[test]
    fn subtype_declared_in_other_design_overlaps() {
        let b = r#"
            device Sensor { source motion as Boolean; }
            device Lamp { action lit; }
            device HallLamp extends Lamp { attribute hall as String; }
            context Intrusion as Boolean { when provided motion from Sensor always publish; }
            controller Patrol { when provided Intrusion do lit on HallLamp; }
        "#;
        let report = deploy(&[("a", SHARED_GUARANTEED_A), ("b", b)], &[]);
        // `a` actuates the whole Lamp family; `b` its HallLamp subfamily
        // (unknown to `a`): the merged taxonomy still sees the overlap.
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(
            report.conflicts[0].shared_devices,
            vec!["HallLamp".to_owned()]
        );
    }

    #[test]
    fn disjoint_sibling_families_are_clean() {
        let a = r#"
            device Sensor { source motion as Boolean; }
            device Lamp { action lit; }
            device HallLamp extends Lamp { attribute hall as String; }
            context Presence as Boolean { when provided motion from Sensor always publish; }
            controller Comfort { when provided Presence do lit on HallLamp; }
        "#;
        let b = r#"
            device Sensor { source motion as Boolean; }
            device Lamp { action lit; }
            device YardLamp extends Lamp { attribute yard as String; }
            context Intrusion as Boolean { when provided motion from Sensor always publish; }
            controller Patrol { when provided Intrusion do lit on YardLamp; }
        "#;
        let report = deploy(&[("a", a), ("b", b)], &[]);
        assert!(report.conflict_free());
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn single_design_reports_no_cross_conflicts() {
        let report = deploy(&[("a", SHARED_GUARANTEED_A)], &[]);
        assert!(report.conflict_free());
        assert!(report.diagnostics.is_empty());
    }

    const METERED: &str = r#"
        @qos(capacityPerHour = 100)
        device Meter { source reading as Float; }
        device K { action a; }
        context Usage as Float { when periodic reading from Meter <1 min> always publish; }
        controller Out { when provided Usage do a on K; }
    "#;

    #[test]
    fn aggregate_load_over_family_budget_warns() {
        // Each design polls the shared meters at 60 msg/h; together they
        // exceed the 100 msg/h per-device budget.
        let report = deploy_with(
            &[("a", METERED), ("b", METERED)],
            &[],
            &AnalysisOptions { fleet_size: 1 },
        );
        let finding = report.diagnostics.find("W0602").unwrap();
        assert_eq!(finding.severity, Severity::Warning);
        assert_eq!(
            finding.message,
            "co-deployed designs overload device family `Meter`: 120.0 msg/h against a budget \
             of 100.0 msg/h (@qos(capacityPerHour = 100) x 1 devices)"
        );
        let notes: Vec<&str> = finding.notes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            notes,
            [
                "also orchestrated by design `b` here",
                "per-design contributions: `a` 60.0 msg/h, `b` 60.0 msg/h"
            ]
        );
    }

    #[test]
    fn aggregate_load_within_budget_is_clean() {
        let roomy = METERED.replace("capacityPerHour = 100", "capacityPerHour = 150");
        let report = deploy_with(
            &[("a", &roomy), ("b", &roomy)],
            &[],
            &AnalysisOptions { fleet_size: 1 },
        );
        assert!(report.diagnostics.find("W0602").is_none());
    }

    /// A family one design overloads alone is that design's W0407 (its
    /// single-design analysis), and the deployment does not repeat it.
    #[test]
    fn a_family_one_design_overloads_is_not_repeated_as_w0602() {
        let tight = METERED.replace("capacityPerHour = 100", "capacityPerHour = 50");
        let report = deploy(&[("a", &tight), ("b", METERED)], &[]);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, ["W0601"], "the pair's conflict, no budget finding");
    }

    fn pin(design: usize, family: &str, hosts: &[(&str, Option<&str>, &[&str])]) -> DeployPins {
        DeployPins {
            design,
            origin: format!("manifest{design}.json"),
            families: BTreeMap::from([(
                family.to_owned(),
                hosts
                    .iter()
                    .map(|(node, addr, variants)| PinnedHost {
                        node: (*node).to_owned(),
                        addr: addr.map(str::to_owned),
                        variants: variants.iter().map(|v| (*v).to_owned()).collect(),
                        link_msgs_per_hour: None,
                    })
                    .collect(),
            )]),
        }
    }

    #[test]
    fn variant_pinned_to_two_addrs_is_a_cut_violation() {
        let pins = vec![
            pin(0, "Sensor", &[("edge0", Some("127.0.0.1:7070"), &["s1"])]),
            pin(1, "Sensor", &[("edge1", Some("127.0.0.1:9090"), &["s1"])]),
        ];
        let report = deploy(
            &[("a", SHARED_GUARANTEED_A), ("b", SHARED_GUARANTEED_B)],
            &pins,
        );
        let violation = report
            .cut_violations
            .first()
            .expect("cut violation reported");
        assert_eq!(violation.variant.as_deref(), Some("s1"));
        let finding = report
            .diagnostics
            .iter()
            .find(|f| f.code == "E0602")
            .expect("E0602 reported");
        assert_eq!(finding.severity, Severity::Error);
        assert!(finding.message.contains("127.0.0.1:7070"));
        assert!(finding.message.contains("127.0.0.1:9090"));
        assert!(finding
            .notes
            .iter()
            .any(|(n, _)| n.contains("manifest0.json")));
    }

    #[test]
    fn agreeing_pins_are_safe() {
        let pins = vec![
            pin(0, "Sensor", &[("edge0", Some("127.0.0.1:7070"), &["s1"])]),
            pin(1, "Sensor", &[("edgeX", Some("127.0.0.1:7070"), &["s1"])]),
        ];
        let report = deploy(
            &[("a", SHARED_GUARANTEED_A), ("b", SHARED_GUARANTEED_B)],
            &pins,
        );
        assert!(report.cut_violations.is_empty());
    }

    #[test]
    fn edge_pin_vs_coordinator_is_a_cut_violation() {
        let pins = vec![
            pin(0, "Sensor", &[("edge0", Some("127.0.0.1:7070"), &[])]),
            pin(1, "Sensor", &[("city", None, &[])]),
        ];
        let report = deploy(
            &[("a", SHARED_GUARANTEED_A), ("b", SHARED_GUARANTEED_B)],
            &pins,
        );
        assert_eq!(report.cut_violations.len(), 1);
        assert!(report.cut_violations[0].second_addr.is_none());
    }

    #[test]
    fn disjoint_shard_variants_are_distinct_devices() {
        let pins = vec![
            pin(0, "Sensor", &[("edge0", Some("127.0.0.1:7070"), &["s1"])]),
            pin(1, "Sensor", &[("edge1", Some("127.0.0.1:9090"), &["s2"])]),
        ];
        let report = deploy(
            &[("a", SHARED_GUARANTEED_A), ("b", SHARED_GUARANTEED_B)],
            &pins,
        );
        assert!(report.cut_violations.is_empty());
    }

    #[test]
    fn link_budget_aggregates_across_designs() {
        let roomy = METERED.replace("capacityPerHour = 100", "capacityPerHour = 150");
        let mut pins = vec![
            pin(0, "Meter", &[("edge0", Some("127.0.0.1:7070"), &[])]),
            pin(1, "Meter", &[("edge9", Some("127.0.0.1:7070"), &[])]),
        ];
        let fleet = AnalysisOptions { fleet_size: 1 };
        let designs = [("a", roomy.as_str()), ("b", roomy.as_str())];
        // No manifest gives the link a budget: nothing to hold it to.
        let report = deploy_with(&designs, &pins, &fleet);
        assert!(report.diagnostics.find("W0602").is_none());
        // 60 msg/h from each design onto the same link: 120 > 100, the
        // smaller of the two budgets its manifests give.
        pins[0].families.get_mut("Meter").unwrap()[0].link_msgs_per_hour = Some(100);
        pins[1].families.get_mut("Meter").unwrap()[0].link_msgs_per_hour = Some(500);
        let report = deploy_with(&designs, &pins, &fleet);
        let finding = report.diagnostics.find("W0602").unwrap();
        assert_eq!(
            finding.message,
            "deployment cut link `127.0.0.1:7070` is overloaded: 120.0 msg/h against a budget \
             of 100.0 msg/h"
        );
        assert_eq!(
            finding.notes[0].0,
            "per-design contributions: `a`/Meter 60.0 msg/h, `b`/Meter 60.0 msg/h"
        );
    }

    #[test]
    fn merged_taxonomy_answers_cross_design_subtyping() {
        let a = compile_str("device Vent { action setLevel; }").unwrap();
        let b = compile_str(
            "device Vent { action setLevel; } device EmergencyVent extends Vent { attribute zone as String; }",
        )
        .unwrap();
        let designs = [
            DesignRef {
                name: "a",
                spec: &a,
            },
            DesignRef {
                name: "b",
                spec: &b,
            },
        ];
        let tax = MergedTaxonomy::build(&designs);
        assert!(tax.is_subtype("EmergencyVent", "Vent"));
        assert!(!tax.is_subtype("Vent", "EmergencyVent"));
        assert!(tax.overlap("Vent", "EmergencyVent"));
        assert_eq!(
            tax.shared_devices("Vent", "EmergencyVent"),
            vec!["EmergencyVent".to_owned()]
        );
    }
}
