//! Pass 4a: reachability — dead contexts, controllers, and devices
//! (W0405 / W0406).
//!
//! A context is *live* when some activation can fire on its own (a
//! device-source or periodic trigger, or a subscription to a live
//! context), or when a live component `get`s it. A controller is live
//! when some binding is triggered by a live context. Everything else is
//! unreachable at runtime no matter what the environment does (W0405).
//!
//! A device is *dead* when no interaction contract anywhere in the
//! design can touch its family: no subscription or `get` senses one of
//! its sources and no `do` clause actuates it (W0406). Only the
//! root-most dead device of a dead subtree is reported.

use crate::diag::{Diagnostic, Diagnostics};
use crate::model::CheckedSpec;
use std::collections::BTreeSet;

use super::graph::{families_overlap, DesignGraph, EdgeKind, Node};

/// The outcome of the reachability pass.
#[derive(Debug, Clone, Default)]
pub struct Reachability {
    /// Contexts that can never activate nor be queried, in name order.
    pub unreachable_contexts: Vec<String>,
    /// Controllers that can never fire, in name order.
    pub unreachable_controllers: Vec<String>,
    /// Root-most devices whose family is never sensed nor actuated.
    pub dead_devices: Vec<String>,
}

/// Runs the reachability pass, reporting findings into `diags`.
pub(crate) fn detect(
    spec: &CheckedSpec,
    graph: &DesignGraph,
    diags: &mut Diagnostics,
) -> Reachability {
    let mut out = Reachability::default();

    // ---- component liveness fixpoint, over node ids ----------------------
    let mut live: BTreeSet<usize> = BTreeSet::new();
    loop {
        let mut changed = false;
        for ctx in spec.contexts() {
            let Some(id) = graph.context_id(&ctx.name) else {
                continue;
            };
            if live.contains(&id) {
                continue;
            }
            // A subscription fires on its own when it senses a device,
            // and through a live context otherwise.
            let fires = graph.edges.iter().any(|e| {
                e.to == id && e.kind.is_flow() && (e.family.is_some() || live.contains(&e.from))
            });
            // A `when required` context is reached when a *live* context
            // queries it (the query runs only when the querier activates).
            let queried = graph
                .edges
                .iter()
                .any(|e| e.from == id && e.kind == EdgeKind::Query && live.contains(&e.to));
            if fires || queried {
                live.insert(id);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for ctx in spec.contexts() {
        if !graph
            .context_id(&ctx.name)
            .is_some_and(|id| live.contains(&id))
        {
            diags.push(Diagnostic::warning(
                "W0405",
                format!(
                    "context `{}` is unreachable: it can never activate and no live component queries it",
                    ctx.name
                ),
                ctx.span,
            ));
            out.unreachable_contexts.push(ctx.name.clone());
        }
    }
    for ctrl in spec.controllers() {
        let id = graph.node_id(&Node::Controller(ctrl.name.clone()));
        let fires = graph
            .edges
            .iter()
            .any(|e| Some(e.to) == id && live.contains(&e.from));
        if !fires {
            diags.push(Diagnostic::warning(
                "W0405",
                format!(
                    "controller `{}` is unreachable: none of its trigger contexts can ever publish",
                    ctrl.name
                ),
                ctrl.span,
            ));
            out.unreachable_controllers.push(ctrl.name.clone());
        }
    }

    // ---- dead devices ---------------------------------------------------
    // Every device family a clause names: triggers, `get`s and `do`s.
    let referenced: BTreeSet<&str> = graph
        .edges
        .iter()
        .filter_map(|e| e.family.as_deref())
        .collect();
    let is_dead = |name: &str| !referenced.iter().any(|r| families_overlap(spec, r, name));
    for device in spec.devices() {
        if !is_dead(&device.name) {
            continue;
        }
        // Report only the root-most device of a dead subtree.
        if device.parent.as_deref().is_some_and(&is_dead) {
            continue;
        }
        diags.push(Diagnostic::warning(
            "W0406",
            format!(
                "device `{}` is dead: no interaction contract senses one of its sources or actuates one of its actions",
                device.name
            ),
            device.span,
        ));
        out.dead_devices.push(device.name.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

    fn analyze(src: &str) -> (Reachability, Diagnostics) {
        let spec = compile_str(src).unwrap();
        let mut diags = Diagnostics::new();
        let reach = detect(&spec, &DesignGraph::build(&spec), &mut diags);
        (reach, diags)
    }

    #[test]
    fn required_only_context_without_querier_is_dead() {
        let (reach, diags) = analyze(
            r#"
            device S { source v as Integer; }
            device K { action a; }
            context Forgotten as Integer { when required; }
            context Live as Integer { when provided v from S always publish; }
            controller Out { when provided Live do a on K; }
            "#,
        );
        assert_eq!(reach.unreachable_contexts, vec!["Forgotten"]);
        assert!(reach.unreachable_controllers.is_empty());
        assert!(diags.find("W0405").is_some());
    }

    #[test]
    fn required_context_queried_by_live_context_is_live() {
        let (reach, diags) = analyze(
            r#"
            device S { source v as Integer; }
            device K { action a; }
            context Cache as Integer { when required; }
            context Live as Integer {
              when provided v from S get Cache always publish;
            }
            controller Out { when provided Live do a on K; }
            "#,
        );
        assert!(reach.unreachable_contexts.is_empty());
        assert!(diags.find("W0405").is_none());
    }

    #[test]
    fn unreferenced_device_family_reported_at_root() {
        let (reach, diags) = analyze(
            r#"
            device S { source v as Integer; }
            device K { action a; }
            device Ghost { source whisper as String; }
            device LoudGhost extends Ghost { attribute vol as Integer; }
            context Live as Integer { when provided v from S always publish; }
            controller Out { when provided Live do a on K; }
            "#,
        );
        assert_eq!(reach.dead_devices, vec!["Ghost"]);
        let diag = diags.find("W0406").unwrap();
        assert!(diag.message.contains("`Ghost`"));
    }

    #[test]
    fn subtype_reference_keeps_ancestor_alive() {
        let (reach, _) = analyze(
            r#"
            device Base { source v as Integer; }
            device Leaf extends Base { attribute x as Integer; }
            device K { action a; }
            context Live as Integer { when provided v from Leaf always publish; }
            controller Out { when provided Live do a on K; }
            "#,
        );
        assert!(reach.dead_devices.is_empty());
    }
}
