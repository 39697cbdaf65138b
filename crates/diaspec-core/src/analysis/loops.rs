//! Pass 3: environment feedback-loop detection (W0402 / W0403).
//!
//! A controller closes a loop *through the environment* when it actuates
//! a device family whose sources feed — transitively, through context
//! subscriptions — back into the very context that triggers it. The
//! design language cannot see this edge (it goes through the physical
//! world), which is exactly why the analyzer must:
//!
//! - **W0402** — the loop re-enters through an *event-driven* (or
//!   periodic) subscription: each actuation can schedule the next
//!   trigger, so the design can oscillate on its own.
//! - **W0403** — the loop closes only through `get` reads: the actuation
//!   influences future computations but cannot re-trigger them by
//!   itself. Weaker, still worth knowing about.

use crate::diag::{Diagnostic, Diagnostics};
use crate::model::CheckedSpec;
use crate::span::Span;
use serde::{Deserialize, Serialize};

use super::graph::{families_overlap, DesignGraph, EdgeKind, Node};

/// How a feedback loop re-enters the trigger chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopKind {
    /// Re-entry through event-driven or periodic subscriptions (W0402).
    Event,
    /// Re-entry only through query-driven `get` reads (W0403).
    Query,
}

/// A loop closed through the environment: actuate → sense → … → trigger.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedbackLoop {
    /// The controller whose actuation closes the loop.
    pub controller: String,
    /// The context triggering that controller.
    pub trigger_context: String,
    /// The actuated action.
    pub action: String,
    /// The actuated device family root (the `do ... on X` target).
    pub device: String,
    /// The device whose source re-enters the design (overlaps `device`'s
    /// family).
    pub feedback_device: String,
    /// The source closing the loop.
    pub source: String,
    /// The context fed by that source.
    pub reentry_context: String,
    /// Context path from the re-entry context to the trigger context
    /// (inclusive).
    pub path: Vec<String>,
    /// Event-driven (strong) or query-only (weak) re-entry.
    pub kind: LoopKind,
    /// Span of the offending `do` clause.
    pub span: Span,
}

/// Detects environment feedback loops and reports them into `diags`.
///
/// At most one loop is reported per `do` clause, preferring event-driven
/// re-entry (the stronger finding) over query-only re-entry.
pub(crate) fn detect(
    spec: &CheckedSpec,
    graph: &DesignGraph,
    diags: &mut Diagnostics,
) -> Vec<FeedbackLoop> {
    // Every sensing entry point, in deterministic context order.
    let entries: Vec<Entry<'_>> = graph
        .edges
        .iter()
        .filter_map(
            |edge| match (&graph.nodes[edge.from], &graph.nodes[edge.to], &edge.family) {
                (Node::Source { source, .. }, Node::Context(ctx), Some(family)) => Some((
                    ctx.as_str(),
                    family.as_str(),
                    source.as_str(),
                    edge.kind.is_flow(),
                )),
                _ => None,
            },
        )
        .collect();

    let mut loops = Vec::new();
    for edge in graph.edges.iter().filter(|e| e.kind == EdgeKind::Do) {
        let (Node::Controller(controller), Node::Action { device, action }) =
            (&graph.nodes[edge.from], &graph.nodes[edge.to])
        else {
            continue;
        };
        let Some(binding) = graph.binding(spec, edge) else {
            continue;
        };
        let found = find_loop(spec, graph, &entries, &binding.context, device);
        if let Some((entry, path, kind)) = found {
            let lp = FeedbackLoop {
                controller: controller.clone(),
                trigger_context: binding.context.clone(),
                action: action.clone(),
                device: device.clone(),
                feedback_device: entry.1.to_owned(),
                source: entry.2.to_owned(),
                reentry_context: entry.0.to_owned(),
                path,
                kind,
                span: graph.span(spec, edge),
            };
            diags.push(render(spec, &lp));
            loops.push(lp);
        }
    }
    loops
}

/// A sensing entry point: `(context, device, source, strong?)` — strong
/// when the source *triggers* the context rather than being `get`-read.
type Entry<'a> = (&'a str, &'a str, &'a str, bool);

/// Finds the best feedback loop for one `do` clause: an entry point
/// sensing the actuated family that reaches the trigger context. Strong
/// (event-driven all the way) beats weak (any path, query re-entry).
fn find_loop<'e>(
    spec: &CheckedSpec,
    graph: &DesignGraph,
    entries: &'e [Entry<'e>],
    trigger: &str,
    actuated: &str,
) -> Option<(&'e Entry<'e>, Vec<String>, LoopKind)> {
    let mut weak = None;
    for entry in entries {
        let (ctx, sensed_device, _source, strong_entry) = *entry;
        if !families_overlap(spec, sensed_device, actuated) {
            continue;
        }
        if strong_entry {
            if let Some(path) = graph.context_path(ctx, trigger, false) {
                return Some((entry, path, LoopKind::Event));
            }
        }
        if weak.is_none() {
            if let Some(path) = graph.context_path(ctx, trigger, true) {
                weak = Some((entry, path, LoopKind::Query));
            }
        }
    }
    weak
}

fn render(spec: &CheckedSpec, lp: &FeedbackLoop) -> Diagnostic {
    let mut path = String::new();
    for (i, ctx) in lp.path.iter().enumerate() {
        if i > 0 {
            path.push_str(" -> ");
        }
        path.push('[');
        path.push_str(ctx);
        path.push(']');
    }
    let full_chain = format!(
        "{}.{} -> {path} -> ({}) -> {}.{}()",
        lp.feedback_device, lp.source, lp.controller, lp.device, lp.action
    );
    let trigger_span = spec
        .context(&lp.trigger_context)
        .map(|c| c.span)
        .unwrap_or(Span::DUMMY);
    match lp.kind {
        LoopKind::Event => Diagnostic::warning(
            "W0402",
            format!(
                "actuating `{}.{}` closes an event-driven feedback loop: `{}.{}` re-triggers `{}`, which reaches trigger context `{}`",
                lp.device, lp.action, lp.feedback_device, lp.source, lp.reentry_context, lp.trigger_context
            ),
            lp.span,
        ),
        LoopKind::Query => Diagnostic::warning(
            "W0403",
            format!(
                "actuating `{}.{}` feeds back into the trigger chain of `{}` through `get` reads of `{}.{}`",
                lp.device, lp.action, lp.controller, lp.feedback_device, lp.source
            ),
            lp.span,
        ),
    }
    .with_note(format!("feedback cycle: {full_chain} -> (environment) -> {}.{}", lp.feedback_device, lp.source), None)
    .with_note(
        format!("trigger context `{}` declared here", lp.trigger_context),
        Some(trigger_span),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

    fn analyze(src: &str) -> (Vec<FeedbackLoop>, Diagnostics) {
        let spec = compile_str(src).unwrap();
        let graph = DesignGraph::build(&spec);
        let mut diags = Diagnostics::new();
        let loops = detect(&spec, &graph, &mut diags);
        (loops, diags)
    }

    #[test]
    fn event_driven_loop_detected() {
        let (loops, diags) = analyze(
            r#"
            device Heater { source temperature as Float; action heat; }
            context Cold as Float { when provided temperature from Heater always publish; }
            controller Thermostat { when provided Cold do heat on Heater; }
            "#,
        );
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].kind, LoopKind::Event);
        assert_eq!(loops[0].reentry_context, "Cold");
        assert_eq!(loops[0].path, vec!["Cold"]);
        assert!(diags.find("W0402").is_some());
        assert!(diags.find("W0403").is_none());
    }

    #[test]
    fn loop_through_subtype_family() {
        // Actuates the subtype; the loop re-enters through a subscription
        // against the ancestor (whose family contains the subtype).
        let (loops, diags) = analyze(
            r#"
            device Appliance { source watts as Float; }
            device Oven extends Appliance { action off; }
            context Spike as Float {
              when provided watts from Appliance always publish;
            }
            context Decide as Float { when provided Spike always publish; }
            controller Cut { when provided Decide do off on Oven; }
            "#,
        );
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].feedback_device, "Appliance");
        assert_eq!(loops[0].path, vec!["Spike", "Decide"]);
        assert!(diags.find("W0402").is_some());
    }

    #[test]
    fn query_only_loop_is_weaker() {
        let (loops, diags) = analyze(
            r#"
            device Meter { source reading as Float; }
            device Cooker { source consumption as Float; action Off; }
            context Usage as Float {
              when provided reading from Meter
                get consumption from Cooker
                always publish;
            }
            controller Guard { when provided Usage do Off on Cooker; }
            "#,
        );
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].kind, LoopKind::Query);
        assert!(diags.find("W0403").is_some());
        assert!(diags.find("W0402").is_none());
    }

    #[test]
    fn disjoint_families_do_not_loop() {
        let (loops, diags) = analyze(
            r#"
            device Sensor { source motion as Boolean; }
            device Light { action lit; }
            context Presence as Boolean { when provided motion from Sensor always publish; }
            controller Lights { when provided Presence do lit on Light; }
            "#,
        );
        assert!(loops.is_empty());
        assert!(diags.is_empty());
    }

    #[test]
    fn sibling_subtype_actuation_does_not_loop() {
        // Senses one subtype, actuates a disjoint sibling: no overlap.
        let (loops, _) = analyze(
            r#"
            device Panel { source brightness as Float; action update; }
            device Indoor extends Panel { attribute room as String; }
            device Outdoor extends Panel { attribute street as String; }
            context Dim as Float { when provided brightness from Indoor always publish; }
            controller Refresh { when provided Dim do update on Outdoor; }
            "#,
        );
        assert!(loops.is_empty());
    }
}
