//! Functional-chain analysis.
//!
//! Paper §II describes an application design as a set of *functional
//! chains* "from device sources to device actions" (Figure 3). This module
//! recovers those chains as paths of the design's one lowering,
//! [`DesignGraph`]: every path that starts at a device source, flows
//! through one or more contexts, reaches a controller, and ends at a
//! device action.
//!
//! Chains are used by the `--chains` view of `diaspec-gen`, by the
//! conflict pass's provenance notes, and by tests that assert a design is
//! fully wired.

use crate::analysis::graph::{DesignGraph, EdgeKind, Node};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A complete functional chain: source → contexts… → controller → action.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FunctionalChain {
    /// Nodes in flow order. Always starts with a [`Node::Source`] and
    /// ends with a [`Node::Action`].
    pub steps: Vec<Node>,
}

impl fmt::Display for FunctionalChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

/// Computes every functional chain of a checked specification.
///
/// A chain follows *event-driven* edges only (`when provided` / `when
/// periodic` subscriptions and controller `do` clauses); query-driven
/// (`get`) inputs are auxiliary reads, not flow, matching the straight
/// vs. loop arrow distinction of the paper's Figure 3. A chain starts at
/// the device that declares its source, whichever family of it the
/// subscription names.
///
/// The checker guarantees the subscription graph is acyclic, so
/// enumeration terminates. Chains are returned in deterministic order.
///
/// # Examples
///
/// ```
/// use diaspec_core::{compile_str, chains::functional_chains};
///
/// let model = compile_str(r#"
///     device Clock { source tick as Integer; }
///     device Siren { action wail; }
///     context Overdue as Integer { when provided tick from Clock maybe publish; }
///     controller Alarm { when provided Overdue do wail on Siren; }
/// "#)?;
/// let chains = functional_chains(&model);
/// assert_eq!(chains.len(), 1);
/// assert_eq!(chains[0].to_string(), "Clock.tick -> [Overdue] -> (Alarm) -> Siren.wail()");
/// # Ok::<(), diaspec_core::diag::CompileError>(())
/// ```
#[must_use]
pub fn functional_chains(spec: &crate::model::CheckedSpec) -> Vec<FunctionalChain> {
    chains_of(&DesignGraph::build(spec))
}

/// The functional chains of a built graph: from each source node (in
/// node order), the paths over flow edges through contexts to a
/// controller, and each `do` edge of the binding that path enters.
pub(crate) fn chains_of(graph: &DesignGraph) -> Vec<FunctionalChain> {
    let mut chains = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if matches!(node, Node::Source { .. }) {
            extend(graph, &mut vec![id], &mut chains);
        }
    }
    chains
}

fn extend(graph: &DesignGraph, prefix: &mut Vec<usize>, chains: &mut Vec<FunctionalChain>) {
    let at = prefix[prefix.len() - 1];
    let mut entered: Vec<usize> = Vec::new();
    for edge in graph
        .edges
        .iter()
        .filter(|e| e.from == at && e.kind.is_flow())
    {
        match graph.nodes[edge.to] {
            // Two clauses between the same two nodes are one path.
            Node::Context(_) if !entered.contains(&edge.to) => {
                entered.push(edge.to);
                prefix.push(edge.to);
                extend(graph, prefix, chains);
                prefix.pop();
            }
            Node::Controller(_) => {
                let actions = graph.edges.iter().filter(|d| {
                    d.kind == EdgeKind::Do && d.from == edge.to && d.clause == edge.clause
                });
                for act in actions {
                    let steps = prefix
                        .iter()
                        .chain([&edge.to, &act.to])
                        .map(|&id| graph.nodes[id].clone())
                        .collect();
                    chains.push(FunctionalChain { steps });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

    const COOKER: &str = r#"
        device Clock { source tickSecond as Integer; }
        device Cooker { source consumption as Float; action On; action Off; }
        device TvPrompter {
          source answer as String indexed by questionId as String;
          action askQuestion(question as String);
        }
        context Alert as Integer {
          when provided tickSecond from Clock
            get consumption from Cooker
            maybe publish;
        }
        controller Notify { when provided Alert do askQuestion on TvPrompter; }
        context RemoteTurnOff as Boolean {
          when provided answer from TvPrompter
            get consumption from Cooker
            maybe publish;
        }
        controller TurnOff { when provided RemoteTurnOff do Off on Cooker; }
    "#;

    #[test]
    fn cooker_design_has_two_chains() {
        let model = compile_str(COOKER).unwrap();
        let chains = functional_chains(&model);
        let rendered: Vec<String> = chains.iter().map(ToString::to_string).collect();
        assert_eq!(
            rendered,
            vec![
                "Clock.tickSecond -> [Alert] -> (Notify) -> TvPrompter.askQuestion()",
                "TvPrompter.answer -> [RemoteTurnOff] -> (TurnOff) -> Cooker.Off()",
            ],
            "the two functional chains of Figure 3"
        );
    }

    #[test]
    fn gets_are_not_chain_edges() {
        let model = compile_str(COOKER).unwrap();
        let chains = functional_chains(&model);
        // Cooker.consumption is only read via `get`; it must not start a chain.
        assert!(chains
            .iter()
            .all(|c| !c.to_string().starts_with("Cooker.consumption")));
    }

    #[test]
    fn multi_context_chain() {
        let model = compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Sink { action absorb; }
            context First as Integer { when provided v from Sensor always publish; }
            context Second as Integer { when provided First always publish; }
            controller End { when provided Second do absorb on Sink; }
            "#,
        )
        .unwrap();
        let chains = functional_chains(&model);
        assert_eq!(chains.len(), 1);
        assert_eq!(
            chains[0].to_string(),
            "Sensor.v -> [First] -> [Second] -> (End) -> Sink.absorb()"
        );
    }

    #[test]
    fn fan_out_produces_multiple_chains() {
        let model = compile_str(
            r#"
            device Sensor { source v as Integer; }
            device A { action a1; }
            device B { action b1; }
            context C as Integer { when provided v from Sensor always publish; }
            controller CtlA { when provided C do a1 on A; }
            controller CtlB { when provided C do b1 on B; }
            "#,
        )
        .unwrap();
        let chains = functional_chains(&model);
        assert_eq!(chains.len(), 2);
    }

    #[test]
    fn multiple_do_clauses_produce_one_chain_each() {
        let model = compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Door { action unlock; }
            device Light { action flash; }
            context Fire as Boolean { when provided v from Sensor maybe publish; }
            controller Evacuate {
              when provided Fire do unlock on Door do flash on Light;
            }
            "#,
        )
        .unwrap();
        let chains = functional_chains(&model);
        assert_eq!(chains.len(), 2);
    }

    #[test]
    fn subscription_via_ancestor_found_once_per_subclass_source() {
        let model = compile_str(
            r#"
            device BaseSensor { source reading as Float; }
            device RoomSensor extends BaseSensor { attribute room as String; }
            device Sink { action absorb; }
            context C as Float { when provided reading from BaseSensor always publish; }
            controller Ctl { when provided C do absorb on Sink; }
            "#,
        )
        .unwrap();
        let chains = functional_chains(&model);
        // The source is declared once (on BaseSensor); the chain starts there.
        assert_eq!(chains.len(), 1);
        assert!(chains[0].to_string().starts_with("BaseSensor.reading"));
    }

    #[test]
    fn chains_serialize() {
        let model = compile_str(COOKER).unwrap();
        let chains = functional_chains(&model);
        let json = serde_json::to_string(&chains).unwrap();
        let back: Vec<FunctionalChain> = serde_json::from_str(&json).unwrap();
        assert_eq!(chains, back);
    }
}
