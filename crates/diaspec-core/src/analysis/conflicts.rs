//! Pass 2: actuation-conflict detection over a universe of N ≥ 1
//! designs (E0401 / W0401 within a design, E0601 / W0601 across
//! designs).
//!
//! Two `do` clauses conflict when they perform the *same action* on
//! *overlapping device sets* — in a tree-shaped `extends` taxonomy, two
//! device families overlap exactly when one root is a subtype of the
//! other ([`MergedTaxonomy`]). A single design is the N = 1 case: its
//! pairs are the i = j case of the one pair loop, and pairs across
//! designs are i < j.
//!
//! **The one rule.** A conflict is *guaranteed* — one publication
//! actuates the shared devices twice — when both clauses sit in the
//! same design and fire on the same trigger context, or when both
//! trigger chains are rooted at one shared device source through
//! event-driven `always publish` hops only (a *guaranteed root*). A
//! periodic (batched) subscription or a `maybe publish` hop on a path
//! leaves a shared root *possible*; chains with no shared root are
//! *independent*. [`Coupling`] names the four cases and
//! [`ActuationConflict::guaranteed`] applies the rule.
//!
//! Guaranteed conflicts are errors (E0401 within a design, E0601
//! across), the others warnings (W0401, W0601): whether the double
//! actuation happens depends on runtime timing. Each finding carries
//! both provenance chains.

use crate::chains::{chains_of, FunctionalChain};
use crate::diag::{Diagnostic, Diagnostics, Severity};
use crate::model::{CheckedSpec, PublishMode};
use crate::span::{Loc, Span};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use super::deployment::{DesignRef, MergedTaxonomy};
use super::graph::{DesignGraph, EdgeKind, Node};

/// One `do` clause, located precisely enough to report a conflict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActuationSite {
    /// The controller performing the actuation.
    pub controller: String,
    /// The context whose publication triggers the binding.
    pub trigger_context: String,
    /// Action name.
    pub action: String,
    /// Declared target device (names its whole `extends` family).
    pub device: String,
    /// Span of the `do ... on ...` clause.
    pub span: Span,
    /// A full sensing-to-actuation provenance chain ending at this site,
    /// rendered as `Device.source -> [Ctx] -> (Ctrl) -> Device.action()`.
    pub chain: Option<String>,
}

/// The shared device publication both trigger chains are rooted at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedPublication {
    /// The root device family both chains subscribe to (the more
    /// refined of the two overlapping subscription families).
    pub device: String,
    /// Source name.
    pub source: String,
}

impl fmt::Display for SharedPublication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.device, self.source)
    }
}

/// How the trigger chains of two conflicting `do` clauses are coupled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Coupling {
    /// Both clauses are in one design and fire on the same context.
    SameContext,
    /// Every publication of this shared source reaches both clauses.
    GuaranteedRoot(SharedPublication),
    /// Both chains are rooted at this shared source, but a periodic
    /// batch or a `maybe publish` hop sits on a path.
    PossibleRoot(SharedPublication),
    /// The chains share no root.
    Independent,
}

/// A pair of `do` clauses performing the same action on overlapping
/// device sets, in one design or in two.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActuationConflict {
    /// Index of the first site's design in the analyzed universe.
    pub first_design: usize,
    /// First site, in (design, controller, binding, clause) order.
    pub first: ActuationSite,
    /// Index of the second site's design (equal to `first_design` for a
    /// conflict within one design).
    pub second_design: usize,
    /// Second site.
    pub second: ActuationSite,
    /// Devices actuated by *both* clauses (the family intersection).
    pub shared_devices: Vec<String>,
    /// How the two trigger chains are coupled.
    pub coupling: Coupling,
}

impl ActuationConflict {
    /// The one rule: whether a single publication is guaranteed to
    /// actuate the shared devices twice.
    #[must_use]
    pub fn guaranteed(&self) -> bool {
        matches!(
            self.coupling,
            Coupling::SameContext | Coupling::GuaranteedRoot(_)
        )
    }

    /// The diagnostic code this conflict reports under.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match (self.first_design == self.second_design, self.guaranteed()) {
            (true, true) => "E0401",
            (true, false) => "W0401",
            (false, true) => "E0601",
            (false, false) => "W0601",
        }
    }
}

/// A device publication a trigger chain is rooted at.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct TriggerRoot {
    /// The device family the chain subscribes through: only publications
    /// by its members reach the chain.
    family: String,
    /// Source name.
    source: String,
    /// Whether every publication of the root is guaranteed to reach the
    /// consumer: an event-driven chain of `always publish` hops. A
    /// periodic (batched) subscription or a `maybe publish` hop anywhere
    /// breaks the guarantee.
    guaranteed: bool,
}

/// Device publications that (transitively) trigger each context's own
/// publications, keyed by context name. Computed in topological order so
/// upstream contexts are resolved before their consumers.
fn context_roots(spec: &CheckedSpec, graph: &DesignGraph) -> BTreeMap<String, Vec<TriggerRoot>> {
    let mut roots: BTreeMap<String, Vec<TriggerRoot>> = BTreeMap::new();
    for ctx in spec.context_topo_order() {
        let id = graph.context_id(&ctx.name);
        let mut merged: BTreeMap<(String, String), bool> = BTreeMap::new();
        for edge in graph
            .edges
            .iter()
            .filter(|e| Some(e.to) == id && e.kind.is_flow())
        {
            // An activation that never publishes contributes no roots:
            // nothing downstream is event-triggered through it.
            let publish = graph
                .activation(spec, edge)
                .map_or(PublishMode::No, |a| a.publish);
            if publish == PublishMode::No {
                continue;
            }
            let publish_guaranteed = publish == PublishMode::Always;
            let incoming: Vec<TriggerRoot> = match (&graph.nodes[edge.from], &edge.family) {
                (Node::Source { source, .. }, Some(family)) => vec![TriggerRoot {
                    family: family.clone(),
                    source: source.clone(),
                    // Batched delivery decouples publication instants
                    // from readings: a shared root, but not a shared
                    // *instant*.
                    guaranteed: edge.kind == EdgeKind::Event,
                }],
                (Node::Context(from), _) => roots.get(from).cloned().unwrap_or_default(),
                _ => Vec::new(),
            };
            for root in incoming {
                let guaranteed = root.guaranteed && publish_guaranteed;
                let entry = merged.entry((root.family, root.source)).or_insert(false);
                *entry = *entry || guaranteed;
            }
        }
        roots.insert(
            ctx.name.clone(),
            merged
                .into_iter()
                .map(|((family, source), guaranteed)| TriggerRoot {
                    family,
                    source,
                    guaranteed,
                })
                .collect(),
        );
    }
    roots
}

/// Every `do` clause of the design as an [`ActuationSite`], with its
/// provenance chain resolved.
fn collect_sites(spec: &CheckedSpec, graph: &DesignGraph) -> Vec<ActuationSite> {
    let chains = chains_of(graph);
    let mut sites = Vec::new();
    for edge in graph.edges.iter().filter(|e| e.kind == EdgeKind::Do) {
        let (Node::Controller(controller), Node::Action { device, action }) =
            (&graph.nodes[edge.from], &graph.nodes[edge.to])
        else {
            continue;
        };
        let Some(binding) = graph.binding(spec, edge) else {
            continue;
        };
        sites.push(ActuationSite {
            controller: controller.clone(),
            trigger_context: binding.context.clone(),
            action: action.clone(),
            device: device.clone(),
            span: graph.span(spec, edge),
            chain: provenance(&chains, controller, &binding.context, action, device),
        });
    }
    sites
}

/// The one conflict pass: every pair of `do` clauses in `designs` that
/// performs the same action on overlapping families, within one design
/// (i = j, each unordered pair once) and across two (i < j). Design
/// `i`'s graph is `graphs[i]`.
pub(crate) fn detect(
    designs: &[DesignRef<'_>],
    graphs: &[DesignGraph],
    taxonomy: &MergedTaxonomy,
) -> Vec<ActuationConflict> {
    let sites: Vec<Vec<ActuationSite>> = designs
        .iter()
        .zip(graphs)
        .map(|(d, graph)| collect_sites(d.spec, graph))
        .collect();
    let roots: Vec<BTreeMap<String, Vec<TriggerRoot>>> = designs
        .iter()
        .zip(graphs)
        .map(|(d, graph)| context_roots(d.spec, graph))
        .collect();

    let mut conflicts = Vec::new();
    for i in 0..designs.len() {
        for j in i..designs.len() {
            for (k, first) in sites[i].iter().enumerate() {
                let partners = if i == j {
                    &sites[j][k + 1..]
                } else {
                    &sites[j][..]
                };
                for second in partners {
                    if first.action != second.action
                        || !taxonomy.overlap(&first.device, &second.device)
                    {
                        continue;
                    }
                    let coupling = if i == j && first.trigger_context == second.trigger_context {
                        Coupling::SameContext
                    } else {
                        let empty = Vec::new();
                        root_coupling(
                            roots[i].get(&first.trigger_context).unwrap_or(&empty),
                            roots[j].get(&second.trigger_context).unwrap_or(&empty),
                            taxonomy,
                        )
                    };
                    conflicts.push(ActuationConflict {
                        first_design: i,
                        first: first.clone(),
                        second_design: j,
                        second: second.clone(),
                        shared_devices: taxonomy.shared_devices(&first.device, &second.device),
                        coupling,
                    });
                }
            }
        }
    }
    conflicts
}

/// The pass over one design (the N = 1 universe), with its findings
/// reported into `diags`.
pub(crate) fn detect_design(
    spec: &CheckedSpec,
    graph: &DesignGraph,
    diags: &mut Diagnostics,
) -> Vec<ActuationConflict> {
    let design = [DesignRef { name: "", spec }];
    let graphs = std::slice::from_ref(graph);
    let conflicts = detect(&design, graphs, &MergedTaxonomy::build(&design));
    diags.extend(conflicts.iter().map(|c| render(&design, c)));
    conflicts
}

/// The coupling of two trigger chains through their roots: the first
/// shared guaranteed root, else the first shared root, else none. Two
/// roots are shared when they name one source and their subscribed
/// families overlap, so that one entity's publication reaches both (a
/// subtype cannot redeclare an inherited source, E0205, so within one
/// design the name identifies the declaration).
fn root_coupling(
    first: &[TriggerRoot],
    second: &[TriggerRoot],
    taxonomy: &MergedTaxonomy,
) -> Coupling {
    let mut coupling = Coupling::Independent;
    for ra in first {
        for rb in second {
            if ra.source != rb.source || !taxonomy.overlap(&ra.family, &rb.family) {
                continue;
            }
            // Witness with the more refined subscribed family.
            let device = if taxonomy.is_subtype(&ra.family, &rb.family) {
                &ra.family
            } else {
                &rb.family
            };
            let publication = SharedPublication {
                device: device.clone(),
                source: ra.source.clone(),
            };
            if ra.guaranteed && rb.guaranteed {
                return Coupling::GuaranteedRoot(publication);
            }
            if coupling == Coupling::Independent {
                coupling = Coupling::PossibleRoot(publication);
            }
        }
    }
    coupling
}

/// The first functional chain ending in `... -> [trigger] -> (controller)
/// -> device.action()`, rendered for provenance.
fn provenance(
    chains: &[FunctionalChain],
    controller: &str,
    trigger: &str,
    action: &str,
    device: &str,
) -> Option<String> {
    chains
        .iter()
        .find(|chain| {
            let steps = &chain.steps;
            let n = steps.len();
            n >= 3
                && steps[n - 1]
                    == Node::Action {
                        device: device.to_owned(),
                        action: action.to_owned(),
                    }
                && steps[n - 2] == Node::Controller(controller.to_owned())
                && steps[n - 3] == Node::Context(trigger.to_owned())
        })
        .map(ToString::to_string)
}

/// Renders one conflict, within a design or across two; each location
/// names the index of the design it points into.
pub(crate) fn render(designs: &[DesignRef<'_>], conflict: &ActuationConflict) -> Diagnostic {
    let (first, second) = (&conflict.first, &conflict.second);
    let (a, b) = (
        designs[conflict.first_design].name,
        designs[conflict.second_design].name,
    );
    let within = conflict.first_design == conflict.second_design;
    let shared = conflict.shared_devices.join("`, `");
    let heading = if !within {
        format!(
            "designs `{a}` and `{b}` both perform `{}` on overlapping devices (`{shared}`)",
            first.action
        )
    } else if first.controller == second.controller {
        format!(
            "controller `{}` performs `{}` twice on overlapping devices (`{shared}`)",
            first.controller, first.action
        )
    } else {
        format!(
            "controllers `{}` and `{}` both perform `{}` on overlapping devices (`{shared}`)",
            first.controller, second.controller, first.action
        )
    };
    let (ctx_a, ctx_b) = (&first.trigger_context, &second.trigger_context);
    let message = match (&conflict.coupling, within) {
        (Coupling::SameContext, _) => format!(
            "{heading}: both `do` clauses fire on every publication of `{ctx_a}`, guaranteeing a duplicate actuation"
        ),
        (Coupling::GuaranteedRoot(root), true) => format!(
            "{heading}: every publication of `{root}` devices reaches both `do` clauses (through `{ctx_a}` and `{ctx_b}`), guaranteeing a duplicate actuation"
        ),
        (_, true) => format!("{heading} via distinct trigger chains (`{ctx_a}` and `{ctx_b}`)"),
        (Coupling::GuaranteedRoot(root), false) => format!(
            "{heading}: every publication of shared `{root}` devices triggers controller `{}` ({a}) and controller `{}` ({b}), guaranteeing a cross-application duplicate actuation",
            first.controller, second.controller
        ),
        (Coupling::PossibleRoot(root), false) => format!(
            "{heading}: both react to publications of shared `{root}` devices, but not on every publication (a periodic batch or `maybe publish` hop sits on the path), so the duplicate actuation depends on runtime timing"
        ),
        (Coupling::Independent, false) => format!(
            "{heading} via independent trigger chains (`{ctx_a}` in {a}, `{ctx_b}` in {b}): whether the duplicate actuation happens depends on runtime timing"
        ),
    };
    let partner = &second.controller;
    let related = if within {
        format!("conflicting `do` clause in controller `{partner}` here")
    } else {
        format!("conflicting `do` clause of controller `{partner}` in design `{b}` here")
    };
    let tag = |name: &str| {
        if within {
            String::new()
        } else {
            format!(" ({name})")
        }
    };
    let mut notes = vec![(
        related,
        Some(Loc {
            file: conflict.second_design,
            span: second.span,
        }),
    )];
    if let Some(chain) = &first.chain {
        notes.push((format!("first actuation chain{}: {chain}", tag(a)), None));
    }
    if let Some(chain) = &second.chain {
        notes.push((format!("second actuation chain{}: {chain}", tag(b)), None));
    }
    Diagnostic {
        severity: if conflict.guaranteed() {
            Severity::Error
        } else {
            Severity::Warning
        },
        code: conflict.code(),
        message,
        at: Loc {
            file: conflict.first_design,
            span: first.span,
        },
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

    fn analyze(src: &str) -> (Vec<ActuationConflict>, Diagnostics) {
        let spec = compile_str(src).unwrap();
        let mut diags = Diagnostics::new();
        let conflicts = detect_design(&spec, &DesignGraph::build(&spec), &mut diags);
        (conflicts, diags)
    }

    #[test]
    fn same_trigger_is_an_error() {
        let (conflicts, diags) = analyze(
            r#"
            device Probe { source v as Integer; }
            device Valve { action close; }
            context Hot as Integer { when provided v from Probe always publish; }
            controller A { when provided Hot do close on Valve; }
            controller B { when provided Hot do close on Valve; }
            "#,
        );
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].coupling, Coupling::SameContext);
        assert_eq!(conflicts[0].code(), "E0401");
        assert_eq!(conflicts[0].shared_devices, vec!["Valve"]);
        let diag = diags.find("E0401").unwrap();
        assert!(diag.message.contains("`A`") && diag.message.contains("`B`"));
        // Both provenance chains ride along as notes.
        assert!(diag
            .notes
            .iter()
            .any(|(n, _)| n.contains("first actuation chain")));
        assert!(diag
            .notes
            .iter()
            .any(|(n, _)| n.contains("second actuation chain")));
    }

    #[test]
    fn distinct_chains_warn_with_subtype_overlap() {
        let (conflicts, diags) = analyze(
            r#"
            device Probe { source v as Integer; source w as Integer; }
            device Lamp { action lit; }
            device HallLamp extends Lamp { attribute hall as String; }
            context X as Integer { when provided v from Probe always publish; }
            context Y as Integer { when provided w from Probe always publish; }
            controller A { when provided X do lit on Lamp; }
            controller B { when provided Y do lit on HallLamp; }
            "#,
        );
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].coupling, Coupling::Independent);
        assert_eq!(conflicts[0].code(), "W0401");
        assert_eq!(conflicts[0].shared_devices, vec!["HallLamp"]);
        assert!(diags.find("E0401").is_none());
    }

    const SHARED_ROOT: &str = r#"
        device Sensor { source v as Integer; }
        device Lamp { action flash; }
        context A as Integer { when provided v from Sensor always publish; }
        context B as Integer { when provided v from Sensor always publish; }
        controller CA { when provided A do flash on Lamp; }
        controller CB { when provided B do flash on Lamp; }
    "#;

    #[test]
    fn shared_guaranteed_root_is_an_error() {
        let (conflicts, diags) = analyze(SHARED_ROOT);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(
            conflicts[0].coupling,
            Coupling::GuaranteedRoot(SharedPublication {
                device: "Sensor".into(),
                source: "v".into(),
            })
        );
        assert_eq!(conflicts[0].code(), "E0401");
        let diag = diags.find("E0401").unwrap();
        assert!(diag.message.contains("`Sensor.v`"), "{}", diag.message);
        assert!(diags.find("W0401").is_none());
    }

    #[test]
    fn maybe_hop_leaves_a_shared_root_possible() {
        let (conflicts, diags) = analyze(&SHARED_ROOT.replacen("always", "maybe", 1));
        assert_eq!(conflicts.len(), 1);
        assert!(matches!(conflicts[0].coupling, Coupling::PossibleRoot(_)));
        assert_eq!(conflicts[0].code(), "W0401");
        assert!(diags.find("W0401").is_some());
    }

    /// `Hall` and `Kitchen` both inherit `Sensor.v`; `{A}` and `{B}` name
    /// the families contexts `A` and `B` subscribe through.
    fn subtype_roots(a: &str, b: &str) -> String {
        format!(
            r#"
            device Sensor {{ source v as Integer; }}
            device Hall extends Sensor {{ attribute hall as String; }}
            device Kitchen extends Sensor {{ attribute kitchen as String; }}
            device Lamp {{ action flash; }}
            context A as Integer {{ when provided v from {a} always publish; }}
            context B as Integer {{ when provided v from {b} always publish; }}
            controller CA {{ when provided A do flash on Lamp; }}
            controller CB {{ when provided B do flash on Lamp; }}
            "#
        )
    }

    #[test]
    fn sibling_subscriptions_share_no_root() {
        // No entity is both a `Hall` and a `Kitchen`, so no publication
        // reaches both clauses, though both sources resolve to `Sensor.v`.
        let (conflicts, diags) = analyze(&subtype_roots("Hall", "Kitchen"));
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].coupling, Coupling::Independent);
        assert_eq!(conflicts[0].code(), "W0401");
        assert!(diags.find("E0401").is_none());
    }

    #[test]
    fn subtype_subscription_witnesses_with_the_refined_family() {
        let (conflicts, _) = analyze(&subtype_roots("Hall", "Sensor"));
        assert_eq!(conflicts.len(), 1);
        assert_eq!(
            conflicts[0].coupling,
            Coupling::GuaranteedRoot(SharedPublication {
                device: "Hall".into(),
                source: "v".into(),
            })
        );
        assert_eq!(conflicts[0].code(), "E0401");
    }

    #[test]
    fn disjoint_siblings_do_not_conflict() {
        let (conflicts, diags) = analyze(
            r#"
            device Probe { source v as Integer; }
            device Lamp { action lit; }
            device HallLamp extends Lamp { attribute hall as String; }
            device YardLamp extends Lamp { attribute yard as String; }
            context X as Integer { when provided v from Probe always publish; }
            controller A { when provided X do lit on HallLamp; }
            controller B { when provided X do lit on YardLamp; }
            "#,
        );
        assert!(conflicts.is_empty());
        assert!(diags.is_empty());
    }

    #[test]
    fn different_actions_do_not_conflict() {
        let (conflicts, _) = analyze(
            r#"
            device Probe { source v as Integer; }
            device Lamp { action lit; action dark; }
            context X as Integer { when provided v from Probe always publish; }
            controller A { when provided X do lit on Lamp; }
            controller B { when provided X do dark on Lamp; }
            "#,
        );
        assert!(conflicts.is_empty());
    }

    #[test]
    fn duplicate_clause_within_one_binding() {
        let (conflicts, diags) = analyze(
            r#"
            device Probe { source v as Integer; }
            device Horn { action honk; }
            context X as Integer { when provided v from Probe always publish; }
            controller A { when provided X do honk on Horn do honk on Horn; }
            "#,
        );
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].coupling, Coupling::SameContext);
        let diag = diags.find("E0401").unwrap();
        assert!(diag.message.contains("performs `honk` twice"));
    }
}
